package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUpsilonMatchesDefinition(t *testing.T) {
	// Υ(ε,δ) = (2 + 2ε/3)·ln(1/δ)/ε² (Table 1)
	cases := []struct {
		eps, delta float64
	}{
		{0.1, 0.01},
		{0.3, 0.001},
		{0.5, 1e-9},
		{0.05, 0.5},
	}
	for _, c := range cases {
		got := Upsilon(c.eps, c.delta)
		want := (2 + 2*c.eps/3) * math.Log(1/c.delta) / (c.eps * c.eps)
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("Upsilon(%v,%v) = %v want %v", c.eps, c.delta, got, want)
		}
	}
}

func TestUpsilonPaperExample(t *testing.T) {
	// ε=0.1, δ=1/3: Υ = (2+0.0667)·ln3/100... sanity magnitude check.
	u := Upsilon(0.1, 1.0/3)
	if u < 200 || u > 250 {
		t.Fatalf("Upsilon(0.1, 1/3) = %v out of expected magnitude", u)
	}
}

func TestUpsilonLnConsistency(t *testing.T) {
	eps, delta := 0.2, 0.005
	a := Upsilon(eps, delta)
	b := UpsilonLn(eps, math.Log(1/delta))
	if math.Abs(a-b) > 1e-9*a {
		t.Fatalf("UpsilonLn inconsistent: %v vs %v", a, b)
	}
}

func TestUpsilonMonotonicity(t *testing.T) {
	// Decreasing in ε, increasing in ln(1/δ).
	f := func(a, b uint8) bool {
		e1 := 0.05 + float64(a%90)/100
		e2 := e1 + 0.01
		lnInv := 1 + float64(b%100)
		return UpsilonLn(e2, lnInv) < UpsilonLn(e1, lnInv) &&
			UpsilonLn(e1, lnInv+1) > UpsilonLn(e1, lnInv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLnChooseSmallValues(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 3, math.Log(120)},
		{10, 0, 0},
		{10, 10, 0},
		{52, 5, math.Log(2598960)},
	}
	for _, c := range cases {
		got := LnChoose(c.n, c.k)
		if math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("LnChoose(%d,%d) = %v want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestLnChooseOutOfRange(t *testing.T) {
	if !math.IsInf(LnChoose(5, 6), -1) || !math.IsInf(LnChoose(5, -1), -1) {
		t.Fatal("out-of-range LnChoose should be -Inf")
	}
}

func TestLnChooseSymmetry(t *testing.T) {
	f := func(a, b uint16) bool {
		n := int(a%1000) + 1
		k := int(b) % (n + 1)
		return math.Abs(LnChoose(n, k)-LnChoose(n, n-k)) < 1e-6*(1+math.Abs(LnChoose(n, k)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLnChooseHugeDoesNotOverflow(t *testing.T) {
	v := LnChoose(65600000, 20000) // Friendster-scale n, large k
	if math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
		t.Fatalf("LnChoose(65.6M, 20k) = %v", v)
	}
}

func TestStoppingRuleThreshold(t *testing.T) {
	got := StoppingRuleThreshold(0.1, 0.01)
	want := 1 + 1.1*Upsilon(0.1, 0.01)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Λ₂ = %v want %v", got, want)
	}
}

func TestCheckEpsDelta(t *testing.T) {
	bad := [][2]float64{{0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}, {-1, 0.5}, {0.5, 2}}
	for _, c := range bad {
		if err := CheckEpsDelta(c[0], c[1]); err == nil {
			t.Fatalf("CheckEpsDelta(%v,%v) should fail", c[0], c[1])
		}
	}
	if err := CheckEpsDelta(0.1, 0.01); err != nil {
		t.Fatal(err)
	}
}
