package ris

import "context"

// Store is the RR-set store surface that SSA, D-SSA, IMM, TIM/TIM+, the
// max-coverage solvers, the TVM sweeps and the serving layer consume. The
// paper's optimality arguments (Thms 3–5) are agnostic to where RR sets
// live — only Len, coverage and the doubling schedule matter — so the
// algorithms are written against this interface. ShardedCollection is the
// one implementation; its topology (one shard, N in-process shards, remote
// worker shards; heap or spilled; a one-shard store may also be persisted
// and recovered from a snapshot) is chosen by StoreOptions and is invisible
// through this surface.
//
// Contract (what makes every topology interchangeable bit-for-bit):
//
//   - RR set i is always the output of the PRNG stream (Seed, i), so
//     Set(i), Items, Width and every coverage count are identical across
//     worker counts, shard counts and storage tiers.
//   - The stream is append-only: growth never moves or mutates an existing
//     set (D-SSA's prefix-stability requirement).
//   - PostingsRange yields each matching id exactly once, in ascending
//     runs; cross-run global ordering is unspecified (runs are ascending
//     per shard). Consumers must therefore be order-insensitive across
//     runs — the greedy solvers and the epoch-stamped coverage walks are.
//   - Stores are not safe for concurrent mutation; growth, SpillTo, Persist
//     and the scratch-reusing CoverageRangeSeeds must not race each other
//     (concurrent Set/Postings reads remain safe).
//
// The differential harness (differential_test.go) enforces the
// interchangeability against a definition-level reference stream: SSA,
// D-SSA and the TVM budget sweep must return bit-identical Seeds, Coverage
// and checkpoint traces for any shard/worker count and spill budget.
type Store interface {
	// Sampler returns the sampler the store draws RR sets from.
	Sampler() *Sampler
	// Len returns the number of RR sets generated so far.
	Len() int
	// Items returns the total number of node entries across all RR sets.
	Items() int64
	// Width returns Σ_j w(R_j) over all RR sets (TIM's KPT input).
	Width() int64
	// Bytes approximates the resident memory of the store.
	Bytes() int64
	// NumNodes returns the node count of the underlying graph.
	NumNodes() int
	// Scale returns the estimator scale (n for RIS, Γ for WRIS).
	Scale() float64
	// Set returns RR set i; the slice must not be modified and is
	// invalidated (never mutated in place) by the next growth.
	Set(i int) []uint32
	// ForEachSet calls fn for every RR set with id in [from, to), in
	// ascending id order — the bulk-scan primitive solvers use to fold new
	// stream suffixes into gain counts without per-id lookup cost.
	ForEachSet(from, to int, fn func(i int, set []uint32))
	// GenerateTo grows the stream to at least target RR sets. Remote shard
	// failures escape as *ShardError panics (see ShardError).
	GenerateTo(target int)
	// GenerateToCtx is GenerateTo with cooperative cancellation, checked
	// between sampling chunk claims (and between remote RPC attempts). On
	// cancellation it returns the context's error having mutated NOTHING —
	// stream, index and width are exactly as before the call, so a later
	// identical top-up regenerates the same bit-identical sets.
	GenerateToCtx(ctx context.Context, target int) error
	// PostingsRange iterates the ids in [from, upto) of RR sets containing v.
	PostingsRange(v uint32, from, upto int) Postings
	// CoverageRangeSeeds counts sets in [from, to) containing at least one
	// seed, via the inverted index.
	CoverageRangeSeeds(seeds []uint32, from, to int) int64
	// SpillTo spills globally-coldest units until resident RR bytes drop to
	// budget (0 spills everything spillable); a no-op on a store built
	// without a spill budget (SpillStats().Enabled reports which). Counts
	// as a mutation. Returns the first spill failure; after one the store
	// stops spilling and stays consistent resident-only.
	SpillTo(budget int64) error
	// SpillStats reports the spill tier's accounting.
	SpillStats() SpillStats
	// Persist writes a snapshot of the store into dir and atomically commits
	// it via the manifest. The previous snapshot stays committed until the
	// new one is durable. Only a one-shard in-process store is persisted;
	// any other topology returns ErrSnapshotTopology. Persist reads the
	// store, so callers must hold the same exclusivity as growth (concurrent
	// reads are fine).
	Persist(dir string) (SnapshotInfo, error)
	// PersistFS is Persist through an injected filesystem (fault tests).
	PersistFS(dir string, fs SnapshotFS) (SnapshotInfo, error)
}

// SpilledStore and PersistentStore were optional extensions before every
// store implemented them; they survive only as aliases because the frozen
// benchmarks/imperf harness type-asserts on both names.
type (
	SpilledStore    = Store
	PersistentStore = Store
)

var _ Store = (*ShardedCollection)(nil)

// StoreOptions sizes a Store and selects its topology. Every product
// path — a Session, a serving tenant, the one-shot solvers — builds one
// in-process shard sized by Workers, with an optional spill tier, and only
// that store is persisted and recovered. Shards, RemoteWorkers and
// RemoteDial stay only because the frozen benchmarks/imperf topology sweep
// and the ris differential harness set them; a store built with them
// cannot be persisted (ErrSnapshotTopology) or recovered
// (*SnapshotMismatchError), and they go with the multi-shard and remote
// paths.
type StoreOptions struct {
	// Workers is the total generation/index-build parallelism; ≤0 selects
	// runtime.GOMAXPROCS(0). Each in-process shard gets max(Workers/Shards,
	// 1) workers; remote shards sample with the worker process's default.
	Workers int
	// Shards is the number of in-process id shards; ≤ 1 = one shard
	// (default). Results are bit-identical at every count.
	Shards int
	// RemoteWorkers lists shard-worker addresses ("host:port" TCP or
	// "unix:/path"); non-empty puts one shard on each worker, and Shards is
	// ignored. Results remain bit-identical to every in-process topology.
	// Each worker RPC exchange is bounded by DefaultRemoteTimeout.
	RemoteWorkers []string
	// RemoteDial overrides the worker transport (tests inject net.Pipe).
	RemoteDial DialFunc
	// SpillBudgetBytes > 0 enables the disk spill tier: after any growth
	// that leaves more than this many resident RR bytes (arena + index,
	// excluding the shared compiled plan), cold frozen arena extents and
	// cold CSR index blocks are appended to a spill file and served from a
	// shared read-only mapping instead of the heap. Results stay
	// bit-identical at every budget — spilling only moves bytes.
	SpillBudgetBytes int64
	// SpillDir is the directory spill files are created in ("" selects the
	// OS temp directory). Files are process-private scratch, unlinked at
	// creation where possible.
	SpillDir string
}

// NewStore builds the Store described by opt. Every topology yields
// bit-identical results for a fixed seed, so the choice is purely about
// memory layout and generation parallelism.
func NewStore(s *Sampler, seed uint64, opt StoreOptions) Store {
	return newStore(s, seed, opt)
}

func newStore(s *Sampler, seed uint64, opt StoreOptions) *ShardedCollection {
	var sc *ShardedCollection
	if len(opt.RemoteWorkers) > 0 {
		sc = NewRemoteShardedCollection(s, seed, opt)
	} else {
		shards := max(opt.Shards, 1)
		w := 0 // ⇒ GOMAXPROCS/shards
		if opt.Workers > 0 {
			w = max(opt.Workers/shards, 1)
		}
		sc = NewShardedCollection(s, seed, shards, w)
	}
	if opt.SpillBudgetBytes > 0 {
		sc.spill = newSpillState(opt.SpillBudgetBytes, opt.SpillDir)
		for _, sg := range sc.segs {
			sg.spill = sc.spill
		}
	}
	return sc
}
