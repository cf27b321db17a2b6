// Package stats implements the concentration-bound arithmetic the paper's
// algorithms are built on: the Υ(ε,δ) sample-size function (Table 1, the
// sufficient sample count of Corollary 1), log-binomials for the δ/C(n,k)
// union bounds, and the stopping-rule constants of the
// Estimate-Inf procedure (Alg. 3, after Dagum–Karp–Luby–Ross).
//
// Everything that involves C(n,k) is computed in log space: for the graph
// sizes the paper targets, C(n,k) overflows float64 by thousands of orders
// of magnitude.
package stats

import (
	"errors"
	"math"
)

// OneMinusInvE is (1 - 1/e), the submodular greedy approximation factor.
const OneMinusInvE = 1 - 1/math.E

// ErrInvalidParam reports ε or δ outside their valid open intervals.
var ErrInvalidParam = errors.New("stats: epsilon and delta must lie in (0,1)")

// Upsilon returns Υ(ε,δ) = (2 + 2ε/3)·ln(1/δ) / ε² (paper Table 1).
// It is the sufficient number of samples, divided by 1/µ, for the upper-tail
// Chernoff bound of Corollary 1, Eq. (7).
func Upsilon(eps, delta float64) float64 {
	return UpsilonLn(eps, math.Log(1/delta))
}

// UpsilonLn is Upsilon with ln(1/δ) supplied directly, for δ values such as
// δ/(6·C(n,k)) that underflow float64.
func UpsilonLn(eps, lnInvDelta float64) float64 {
	return (2 + 2*eps/3) * lnInvDelta / (eps * eps)
}

// LnChoose returns ln C(n,k) computed with log-gamma. It returns -Inf for
// k < 0 or k > n, and 0 for k == 0 or k == n.
func LnChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln, _ := math.Lgamma(float64(n) + 1)
	lk, _ := math.Lgamma(float64(k) + 1)
	lnk, _ := math.Lgamma(float64(n-k) + 1)
	return ln - lk - lnk
}

// StoppingRuleThreshold returns Λ₂ = 1 + (1+ε′)·Υ(ε′,δ′), the success-count
// threshold of the Estimate-Inf stopping rule (Alg. 3, line 1).
func StoppingRuleThreshold(epsPrime, deltaPrime float64) float64 {
	return 1 + (1+epsPrime)*Upsilon(epsPrime, deltaPrime)
}

// CheckEpsDelta validates that both parameters lie in (0,1).
func CheckEpsDelta(eps, delta float64) error {
	if !(eps > 0 && eps < 1) || !(delta > 0 && delta < 1) {
		return ErrInvalidParam
	}
	return nil
}
