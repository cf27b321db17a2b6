package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"stopandstare"
	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/stats"
)

// Experiment reproduces one table or figure of the paper.
type Experiment struct {
	ID          string
	Description string
	Run         func(cfg Config, w io.Writer) error
}

// Experiments registers every reproducible artifact of §7 plus three
// ablations: SSA's ε-split, Eq. 14's oracle threshold and the certificate.
var Experiments = []Experiment{
	{"table2", "Table 2: dataset statistics of the synthetic stand-ins", runTable2},
	{"fig2", "Fig 2: expected influence vs k under LT", figInfluence(diffusion.LT)},
	{"fig3", "Fig 3: expected influence vs k under IC", figInfluence(diffusion.IC)},
	{"fig4", "Fig 4: running time vs k under LT", figRuntime(diffusion.LT)},
	{"fig5", "Fig 5: running time vs k under IC", figRuntime(diffusion.IC)},
	{"fig6", "Fig 6: memory usage vs k under LT", figMemory(diffusion.LT)},
	{"fig7", "Fig 7: memory usage vs k under IC", figMemory(diffusion.IC)},
	{"table3", "Table 3: runtime and #RR sets of D-SSA/SSA/IMM under LT", runTable3},
	{"table4", "Table 4: synthetic TVM topics and targeted group sizes", runTable4},
	{"fig8", "Fig 8: TVM running time vs k (SSA, D-SSA, KB-TIM)", runFig8},
	{"ablation-eps", "Ablation: SSA epsilon-split sensitivity (§4.2)", runAblationEps},
	{"ablation-theta", "Ablation: samples vs the oracle threshold of Eq. 14", runAblationTheta},
	{"ablation-certify", "Ablation: stopping-rule certificate vs Monte-Carlo scoring", runAblationCertify},
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment ids in registration order.
func IDs() []string {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return ids
}

// figDatasets are the four networks of Figures 2–7.
var figDatasets = []string{"nethept", "netphy", "dblp", "twitter"}

// table3Datasets are the four networks of Table 3.
var table3Datasets = []string{"enron", "epinions", "orkut", "friendster"}

func runTable2(cfg Config, w io.Writer) error {
	cfg = cfg.Normalize()
	t := &Table{
		Title:   "Table 2: dataset stand-ins (paper size -> generated size)",
		Headers: []string{"dataset", "paper-nodes", "paper-edges", "scale", "nodes", "edges", "avg-degree", "max-out-deg", "lt-valid"},
	}
	for _, p := range gen.Presets {
		d, err := LoadDataset(p.Name, cfg)
		if err != nil {
			return err
		}
		s, err := d.Graph.Stats()
		if err != nil {
			return err
		}
		t.AddRow(p.Name, int64(p.Nodes), p.Edges, fmt.Sprintf("%.4f", d.Scale),
			s.Nodes, s.Edges, s.AvgOutDegree, s.MaxOutDegree, fmt.Sprint(s.LTValid))
	}
	t.Notes = append(t.Notes,
		"paper columns from Table 2; generated sizes are paper sizes x scale",
		"orkut/friendster emitted as two arcs per undirected edge (paper Remark)")
	return t.Format(w)
}

// sweepAlgos picks the algorithm set: the full RIS group, plus CELF++ only
// on the smallest dataset when explicitly enabled (as in the paper, which
// runs it only on NetHEPT under a 24-hour cap).
func sweepAlgos(cfg Config, dataset string) []AlgoID {
	algos := append([]AlgoID{}, IMAlgos...)
	if cfg.IncludeCELF && !cfg.Quick && dataset == "nethept" {
		algos = append(algos, AlgoCELFPP)
	}
	return algos
}

func runIMSweep(cfg Config, model diffusion.Model, w io.Writer, value func(*Metrics) interface{}, valueName string, title string) error {
	cfg = cfg.Normalize()
	for _, name := range figDatasets {
		d, err := LoadDataset(name, cfg)
		if err != nil {
			return err
		}
		t := &Table{
			Title:   fmt.Sprintf("%s — %s (n=%d, m=%d)", title, name, d.Graph.NumNodes(), d.Graph.NumEdges()),
			Headers: []string{"algorithm", "k", valueName, "spread(MC)", "time", "rr-sets", "memory"},
		}
		ks := cfg.KSweep(d.Graph.NumNodes())
		for _, algo := range sweepAlgos(cfg, name) {
			for _, k := range ks {
				if algo == AlgoCELFPP && k > 50 {
					continue // paper caps greedy runs at 24h; we cap k
				}
				m, err := RunIM(d, model, algo, k, cfg)
				if err != nil {
					return fmt.Errorf("%s/%s k=%d: %w", name, algo, k, err)
				}
				t.AddRow(string(algo), k, value(m), m.Spread, m.Elapsed, m.Samples, formatBytes(m.Memory))
			}
		}
		if err := t.Format(w); err != nil {
			return err
		}
	}
	return nil
}

func figInfluence(model diffusion.Model) func(Config, io.Writer) error {
	return func(cfg Config, w io.Writer) error {
		return runIMSweep(cfg, model, w,
			func(m *Metrics) interface{} { return m.Spread },
			"influence",
			fmt.Sprintf("Expected influence vs k, %v model", model))
	}
}

func figRuntime(model diffusion.Model) func(Config, io.Writer) error {
	return func(cfg Config, w io.Writer) error {
		return runIMSweep(cfg, model, w,
			func(m *Metrics) interface{} { return m.Elapsed },
			"runtime",
			fmt.Sprintf("Running time vs k, %v model", model))
	}
}

func figMemory(model diffusion.Model) func(Config, io.Writer) error {
	return func(cfg Config, w io.Writer) error {
		return runIMSweep(cfg, model, w,
			func(m *Metrics) interface{} { return formatBytes(m.Memory) },
			"memory",
			fmt.Sprintf("Memory vs k, %v model", model))
	}
}

func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func runTable3(cfg Config, w io.Writer) error {
	cfg = cfg.Normalize()
	t := &Table{
		Title:   "Table 3: D-SSA / SSA / IMM under LT — runtime and #RR sets",
		Headers: []string{"dataset", "k", "algo", "time", "rr-sets", "spread(MC)"},
	}
	algos := []AlgoID{AlgoDSSA, AlgoSSA, AlgoIMM}
	for _, name := range table3Datasets {
		d, err := LoadDataset(name, cfg)
		if err != nil {
			return err
		}
		n := d.Graph.NumNodes()
		// Paper uses k ∈ {1, 500, 1000} at full size; scale proportionally.
		ks := []int{1, int(500 * d.Scale), int(1000 * d.Scale)}
		if cfg.Quick {
			ks = []int{1, 20, 50}
		}
		ks = dedupKs(clampKs(ks, n))
		for _, k := range ks {
			for _, algo := range algos {
				m, err := RunIM(d, diffusion.LT, algo, k, cfg)
				if err != nil {
					return fmt.Errorf("%s/%s k=%d: %w", name, algo, k, err)
				}
				t.AddRow(name, k, string(algo), m.Elapsed, m.Samples, m.Spread)
			}
		}
	}
	t.Notes = append(t.Notes, "paper shape: D-SSA <= SSA << IMM in both time and #RR sets")
	return t.Format(w)
}

func runTable4(cfg Config, w io.Writer) error {
	cfg = cfg.Normalize()
	d, err := LoadDataset("twitter", cfg)
	if err != nil {
		return err
	}
	topics, err := gen.GenerateDefaultTopics(d.Graph, cfg.Seed+77)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "Table 4: synthetic topics over the twitter stand-in",
		Headers: []string{"topic", "keywords", "#users", "gamma", "frac-of-n"},
	}
	for i, tp := range topics {
		t.AddRow(fmt.Sprintf("%d (%s)", i+1, tp.Name), fmt.Sprintf("%d keywords", len(tp.Keywords)),
			int64(tp.Users), tp.Gamma, fmt.Sprintf("%.3f", float64(tp.Users)/float64(d.Graph.NumNodes())))
	}
	t.Notes = append(t.Notes, "paper: 997,034 users (2.4% of n) topic 1; 507,465 (1.2%) topic 2")
	return t.Format(w)
}

func runFig8(cfg Config, w io.Writer) error {
	cfg = cfg.Normalize()
	d, err := LoadDataset("twitter", cfg)
	if err != nil {
		return err
	}
	topics, err := gen.GenerateDefaultTopics(d.Graph, cfg.Seed+77)
	if err != nil {
		return err
	}
	n := d.Graph.NumNodes()
	ks := cfg.KValues
	if len(ks) == 0 {
		if cfg.Quick {
			ks = []int{1, 20, 100}
		} else {
			ks = []int{1, int(0.002 * float64(n)), int(0.01 * float64(n)), int(0.024 * float64(n))}
		}
	}
	ks = dedupKs(clampKs(ks, n))
	algos := []struct {
		name string
		algo stopandstare.Algorithm
	}{{"D-SSA", stopandstare.DSSA}, {"SSA", stopandstare.SSA}, {"KB-TIM", stopandstare.TIMPlus}}
	for ti, topic := range topics {
		t := &Table{
			Title:   fmt.Sprintf("Fig 8(%c): TVM on topic %d — runtime vs k (LT)", 'a'+ti, ti+1),
			Headers: []string{"algorithm", "k", "time", "rr-sets", "benefit-est"},
		}
		for _, k := range ks {
			for _, a := range algos {
				res, err := stopandstare.MaximizeTargeted(d.Graph, diffusion.LT, topic.Weights, a.algo, cfg.options(k))
				if err != nil {
					return err
				}
				t.AddRow(a.name, k, res.Elapsed, res.Samples, res.BenefitEstimate)
			}
		}
		t.Notes = append(t.Notes, "paper shape: SSA/D-SSA up to 500x faster than KB-TIM")
		if err := t.Format(w); err != nil {
			return err
		}
	}
	return nil
}

func runAblationEps(cfg Config, w io.Writer) error {
	cfg = cfg.Normalize()
	d, err := LoadDataset("nethept", cfg)
	if err != nil {
		return err
	}
	k := 50
	if cfg.Quick {
		k = 20
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: SSA epsilon-split on nethept (LT, k=%d, eps=%.2f)", k, cfg.Epsilon),
		Headers: []string{"split (e1:e2:e3)", "rr-sets", "verify-sets", "time", "influence"},
	}
	// The §4.2 guidance: e1 > e ~ e3 small nets; e1 ~ e ~ e3 moderate;
	// e1 << e2 ~ e3 large. Sweep representative splits plus the default.
	type split struct{ e1, e2, e3 float64 }
	eps := cfg.Epsilon
	splits := []split{
		{0, 0, 0}, // paper default (Eqs. 19–20)
		{eps * 2, eps / 4, eps / 4},
		{eps, eps / 3, eps / 3},
		{eps / 8, eps / 2, eps / 2},
	}
	for _, sp := range splits {
		opt := cfg.options(k)
		opt.Eps1, opt.Eps2, opt.Eps3 = sp.e1, sp.e2, sp.e3
		// SSA's last checkpoint holds its coverage collection R; every other
		// sample it reports went to Estimate-Inf.
		var coverage int64
		opt.OnCheckpoint = func(c stopandstare.Checkpoint) { coverage = c.Samples }
		res, err := stopandstare.Maximize(d.Graph, diffusion.LT, stopandstare.SSA, opt)
		if err != nil {
			// Splits violating Eq. 18 are reported, not fatal.
			t.AddRow(fmt.Sprintf("%.3f:%.3f:%.3f", sp.e1, sp.e2, sp.e3), "-", "-", err.Error(), "-")
			continue
		}
		label := "default(19-20)"
		if sp.e1 != 0 {
			label = fmt.Sprintf("%.3f:%.3f:%.3f", sp.e1, sp.e2, sp.e3)
		}
		t.AddRow(label, coverage, res.Samples-coverage, res.Elapsed, res.InfluenceEstimate)
	}
	return t.Format(w)
}

func runAblationTheta(cfg Config, w io.Writer) error {
	cfg = cfg.Normalize()
	d, err := LoadDataset("netphy", cfg)
	if err != nil {
		return err
	}
	n := d.Graph.NumNodes()
	k := 50
	if cfg.Quick {
		k = 20
	}
	if cfg.Delta == 0 {
		cfg.Delta = 1 / float64(n)
	}
	algos := []AlgoID{AlgoDSSA, AlgoSSA, AlgoIMM, AlgoTIMPlus}
	results := make([]*stopandstare.Result, len(algos))
	for i, id := range algos {
		if results[i], err = stopandstare.Maximize(d.Graph, diffusion.LT, algorithms[id], cfg.options(k)); err != nil {
			return err
		}
	}
	// Oracle threshold of Eq. 14 with OPT replaced by the best influence
	// estimate observed (D-SSA's): N = 4(1-1/e)·n·(2ln(2/δ)+lnC(n,k))/(ε²·OPT).
	opt := results[0].InfluenceEstimate
	oracle := 4 * stats.OneMinusInvE * float64(n) *
		(2*math.Log(2/cfg.Delta) + stats.LnChoose(n, k)) / (cfg.Epsilon * cfg.Epsilon * opt)
	t := &Table{
		Title:   fmt.Sprintf("Ablation: RR sets vs the Eq. 14 oracle threshold (netphy, LT, k=%d)", k),
		Headers: []string{"method", "rr-sets", "x oracle", "time"},
		Notes: []string{
			fmt.Sprintf("oracle threshold (Eq. 14 with OPT=%.0f): %.0f RR sets", opt, oracle),
			"stop-and-stare stays within a small constant of the oracle; union-bound methods overshoot",
		},
	}
	for i, res := range results {
		t.AddRow(string(algos[i]), res.Samples, fmt.Sprintf("%.2fx", float64(res.Samples)/oracle), res.Elapsed)
	}
	return t.Format(w)
}

func runAblationCertify(cfg Config, w io.Writer) error {
	cfg = cfg.Normalize()
	d, err := LoadDataset("nethept", cfg)
	if err != nil {
		return err
	}
	t := &Table{
		Title:   "Ablation: scoring a seed set — DKLR certificate vs forward MC (nethept, LT)",
		Headers: []string{"k", "certificate", "cert-time", "cert-rr-sets", "mc", "mc-time", "mc-runs"},
		Notes: []string{
			"certificate: two-sided (0.05, 0.001) stopping-rule bound on I(S)",
			"the certificate wins when I(S) is small; MC wins when I(S) ~ n",
		},
	}
	ks := []int{1, 10, 100}
	if cfg.Quick {
		ks = []int{1, 10}
	}
	for _, k := range ks {
		res, err := stopandstare.Maximize(d.Graph, diffusion.LT, stopandstare.DSSA, cfg.options(k))
		if err != nil {
			return err
		}
		cert, err := stopandstare.CertifySpread(d.Graph, diffusion.LT, res.Seeds, 0.05, 0.001, cfg.Seed+9)
		if err != nil {
			return err
		}
		mcStart := time.Now()
		mc, _, err := stopandstare.EvaluateSpread(d.Graph, diffusion.LT, res.Seeds, cfg.MCRuns, cfg.Seed+10, cfg.Workers)
		if err != nil {
			return err
		}
		mcTime := time.Since(mcStart)
		t.AddRow(k, cert.Influence, cert.Elapsed, cert.Samples, mc, mcTime, cfg.MCRuns)
	}
	return t.Format(w)
}

// RunAll executes the named experiments ("all" = every registered one).
func RunAll(ids []string, cfg Config, w io.Writer) error {
	if len(ids) == 1 && ids[0] == "all" {
		ids = IDs()
	}
	sort.Strings(ids)
	for _, id := range ids {
		e, ok := Find(id)
		if !ok {
			return fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
		}
		if _, err := fmt.Fprintf(w, "### %s — %s\n\n", e.ID, e.Description); err != nil {
			return err
		}
		if err := e.Run(cfg, w); err != nil {
			return err
		}
	}
	return nil
}
