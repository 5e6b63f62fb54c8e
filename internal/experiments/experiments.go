// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment returns a tab.Table whose rows
// carry both the measured values and, where the paper prints a number,
// the published value for side-by-side comparison.
//
// Workload traces are recorded once per (benchmark, size) and replayed
// across memory-system configurations, exactly as the paper replays
// its Shade traces through different simulator settings.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/stream"
	"streamsim/internal/tab"
	"streamsim/internal/timing"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// Options tune how expensively the experiments run.
type Options struct {
	// Scale is the workload iteration scale in (0, 1]; 1 reproduces
	// the full traces, smaller values run faster for smoke tests.
	Scale float64
	// Shards forces the window-shard count of the hit-rate replays
	// (core.ShardOptions.Shards): 0 derives the chunk plan from each
	// trace's window count, 1 forces exact sequential replays. The
	// timing experiments (extscale, extcpi) ignore it — cycle
	// accounting is order-dependent, so they always replay
	// sequentially.
	Shards int
	// Streams overrides nothing; experiments fix their own memory
	// system configurations per the paper.
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	return o
}

// Experiment identifies one paper artefact.
type Experiment struct {
	// ID is the harness name (e.g. "fig3", "table4").
	ID string
	// Paper names the artefact in the paper.
	Paper string
	// Run executes the experiment. Cancelling ctx aborts the trace
	// generation and replay loops within one batch boundary and
	// returns ctx.Err().
	Run func(ctx context.Context, o Options) (*tab.Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: benchmark characteristics", Table1},
		{"fig3", "Figure 3: hit rate vs number of streams", Figure3},
		{"table2", "Table 2: extra bandwidth of ordinary streams", Table2},
		{"fig5", "Figure 5: filter effect on hit rate and EB", Figure5},
		{"table3", "Table 3: stream length distribution", Table3},
		{"fig8", "Figure 8: non-unit stride detection", Figure8},
		{"fig9", "Figure 9: hit rate vs czone size", Figure9},
		{"table4", "Table 4: streams versus secondary cache", Table4},
		{"extcpi", "Extension: effective CPI under a timing model", CPI},
		{"extbase", "Extension: OBL and RPT prefetcher baselines", Baselines},
		{"extcost", "Extension: equal-cost L2 node vs stream node", EqualCost},
		{"extscale", "Extension: shared-memory scalability with and without the filter", Scalability},
		{"extbank", "Extension: interleaved-memory bank behaviour of the traffic", BankBehaviour},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// table1Size returns the input size each benchmark is traced at for
// the single-input experiments (Tables 1-3, Figures 3-9). The paper's
// Table 1 inputs correspond to SizeLarge for the three NAS solvers it
// lists at bigger grids; everything else runs its small input.
func table1Size(name string) workload.Size {
	switch name {
	case "appsp", "appbt", "applu":
		return workload.SizeLarge
	default:
		return workload.SizeSmall
	}
}

// recorded is an in-memory trace: the reference stream (held in a
// compact delta-encoded trace.Store rather than a []mem.Access, a
// several-fold memory saving that also keeps replay from streaming
// 24 bytes per reference through the host caches) and the retired
// instruction count of one workload run.
type recorded struct {
	store *trace.Store
	insts uint64
}

// newRecorded sizes the store from the per-workload reference
// estimate so recording never regrows mid-trace.
func newRecorded(name string, size workload.Size, scale float64) *recorded {
	return &recorded{store: trace.NewStore(int(workload.EstimateRefs(name, size, scale)))}
}

// Access implements workload.Sink.
func (r *recorded) Access(a mem.Access) { r.store.Append(a) }

// AccessBatch implements workload.BatchSink.
func (r *recorded) AccessBatch(accs []mem.Access) { r.store.AppendBatch(accs) }

// AddInstructions implements workload.Sink.
func (r *recorded) AddInstructions(n uint64) { r.insts += n }

// replayTimed feeds the trace into timing models from one decode pass
// (timing.ReplayStore), spreading the workload's instruction count
// evenly across the accesses. Models sharing the paper's L1 front
// simulate it once; each then charges only its own miss events.
func (r *recorded) replayTimed(ctx context.Context, models []*timing.Model) error {
	if err := timing.ReplayStore(ctx, models, r.store, r.insts); err != nil {
		return err
	}
	replayedRefs.Add(uint64(r.store.Len()) * uint64(len(models)))
	return nil
}

// replay feeds the trace into a memory system through the batched
// hot path, window-sharded across workers when the trace is long
// enough (core.ReplayStoreWindowed; systems carrying traffic hooks
// fall back to an exact sequential pass automatically).
func (r *recorded) replay(ctx context.Context, sys *core.System, opt core.ShardOptions) error {
	if err := core.ReplayStoreWindowed(ctx, sys, r.store, opt); err != nil {
		return err
	}
	sys.AddInstructions(r.insts)
	replayedRefs.Add(uint64(r.store.Len()))
	return nil
}

// replayMulti feeds the trace into every system from one decode per
// batch via the window-sharded fan-out engine: N configs share each
// decoded 512-reference slice while it is L1-hot, and long traces
// additionally split into window chunks across workers. The chunk
// plan depends only on the trace and opt, never on the host, so the
// published numbers are machine-independent; short traces replay
// exactly as the sequential engine would.
func (r *recorded) replayMulti(ctx context.Context, systems []*core.System, opt core.ShardOptions) error {
	if err := core.ReplayStoreMultiWindowed(ctx, systems, r.store, opt); err != nil {
		return err
	}
	for _, sys := range systems {
		sys.AddInstructions(r.insts)
	}
	replayedRefs.Add(uint64(r.store.Len()) * uint64(len(systems)))
	return nil
}

// replayedRefs counts references replayed through completed trace
// passes, process-wide. The simd service exposes it as a throughput
// metric; the add-per-completed-pass granularity keeps the replay
// loop free of per-batch atomics.
var replayedRefs atomic.Uint64

// ReplayedRefs returns the total references replayed through completed
// trace passes since process start.
func ReplayedRefs() uint64 { return replayedRefs.Load() }

// traceCache memoizes recorded traces per (name, size, scale) so a
// multi-configuration experiment generates each workload once.
var traceCache sync.Map

type traceKey struct {
	name  string
	size  workload.Size
	scale float64
}

// traceCacheHits counts record() calls served from the memoized
// trace cache, process-wide (a simd /metrics gauge).
var traceCacheHits atomic.Uint64

// TraceCacheHits returns how many trace lookups were served from the
// in-process trace cache since process start.
func TraceCacheHits() uint64 { return traceCacheHits.Load() }

// record returns the (possibly cached) trace of a benchmark.
func record(ctx context.Context, name string, size workload.Size, scale float64) (*recorded, error) {
	key := traceKey{name, size, scale}
	if v, ok := traceCache.Load(key); ok {
		traceCacheHits.Add(1)
		return v.(*recorded), nil
	}
	w, err := workload.New(name, size)
	if err != nil {
		return nil, err
	}
	r := newRecorded(name, size, scale)
	if err := w.RunContext(ctx, r, scale); err != nil {
		return nil, err
	}
	if err := r.store.Err(); err != nil {
		return nil, err
	}
	v, loaded := traceCache.LoadOrStore(key, r)
	if loaded {
		traceCacheHits.Add(1)
	}
	return v.(*recorded), nil
}

// ResetTraceCache drops memoized traces (used by benchmarks that want
// to measure generation cost). Entries are deleted in place rather
// than by reassigning the sync.Map value, which would race with
// concurrent Loads from in-flight experiment runs.
func ResetTraceCache() {
	traceCache.Range(func(k, _ any) bool {
		traceCache.Delete(k)
		return true
	})
	l2StreamCache.Range(func(k, _ any) bool {
		l2StreamCache.Delete(k)
		return true
	})
}

// runParallel executes fn(0..n-1) across up to GOMAXPROCS workers and
// returns the first error. Each simulation run builds its own System,
// so runs are independent; only the memoized trace caches are shared
// (they are concurrency-safe). A cancelled ctx stops the dispatch of
// further indices; indices already running observe ctx themselves
// through the replay loops.
func runParallel(ctx context.Context, n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Memory-system configuration builders, named after the paper's setups.

// plainStreams is Section 5: n streams of depth 2, no filters.
func plainStreams(n int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Streams = stream.Config{Streams: n, Depth: 2}
	cfg.UnitFilterEntries = 0
	cfg.Stride = core.NoStrideDetection
	return cfg
}

// filteredStreams is Section 6: 10 streams behind a 16-entry
// unit-stride filter.
func filteredStreams() core.Config {
	cfg := plainStreams(10)
	cfg.UnitFilterEntries = 16
	return cfg
}

// stridedStreams is Section 7: the filtered configuration plus a
// 16-entry non-unit-stride (czone) filter.
func stridedStreams(czoneBits uint) core.Config {
	cfg := filteredStreams()
	cfg.Stride = core.CzoneScheme
	cfg.StrideFilterEntries = 16
	cfg.CzoneBits = czoneBits
	return cfg
}

// noStreams is the bare L1 + memory system used for Table 1.
func noStreams() core.Config {
	cfg := core.DefaultConfig()
	cfg.Streams = stream.Config{}
	cfg.UnitFilterEntries = 0
	cfg.Stride = core.NoStrideDetection
	return cfg
}

// runConfig replays a benchmark trace through a configuration.
func runConfig(ctx context.Context, name string, size workload.Size, opt Options, cfg core.Config) (core.Results, error) {
	tr, err := record(ctx, name, size, opt.Scale)
	if err != nil {
		return core.Results{}, err
	}
	sys, err := core.New(cfg)
	if err != nil {
		return core.Results{}, err
	}
	if err := tr.replay(ctx, sys, core.ShardOptions{Shards: opt.Shards}); err != nil {
		return core.Results{}, err
	}
	return sys.Results(), nil
}

// runConfigs replays one benchmark trace through every configuration,
// decoding each batch once for all of them. It is the multi-config
// analogue of runConfig; each entry of the returned slice is
// byte-identical to a runConfig call with the same configuration.
func runConfigs(ctx context.Context, name string, size workload.Size, opt Options, cfgs []core.Config) ([]core.Results, error) {
	tr, err := record(ctx, name, size, opt.Scale)
	if err != nil {
		return nil, err
	}
	systems := make([]*core.System, len(cfgs))
	for i, cfg := range cfgs {
		if systems[i], err = core.New(cfg); err != nil {
			return nil, err
		}
	}
	if err := tr.replayMulti(ctx, systems, core.ShardOptions{Shards: opt.Shards}); err != nil {
		return nil, err
	}
	res := make([]core.Results, len(systems))
	for i, sys := range systems {
		res[i] = sys.Results()
	}
	return res, nil
}

// l2MissStream is the L1 miss-side traffic of one trace: the block
// fills and write-backs that a secondary cache would observe. It is
// recorded once and replayed across L2 configurations (Table 4).
type l2MissStream struct {
	events []l2Event
}

type l2Event struct {
	addr  mem.Addr
	write bool // write-back of a dirty victim
}

// l2StreamCache memoizes miss streams per (name, size, scale).
var l2StreamCache sync.Map

// missStream derives the L1 miss traffic of a benchmark trace from one
// pass of the bare L1 front (core.ReplayFront): its tapped fills and
// write-backs are exactly the events a secondary cache observes.
func missStream(ctx context.Context, name string, size workload.Size, scale float64) (*l2MissStream, error) {
	key := traceKey{name, size, scale}
	if v, ok := l2StreamCache.Load(key); ok {
		return v.(*l2MissStream), nil
	}
	tr, err := record(ctx, name, size, scale)
	if err != nil {
		return nil, err
	}
	cfg := noStreams()
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	geom := cfg.Geometry
	ms := &l2MissStream{}
	err = core.ReplayFront(ctx, []*core.System{sys}, tr.store, func(_ int, events []core.TapEvent) {
		for _, ev := range events {
			switch {
			case ev.Kind&core.TapWriteBack != 0:
				ms.events = append(ms.events, l2Event{
					addr:  geom.BlockToByte(mem.Addr(ev.Addr)),
					write: true,
				})
			case ev.Kind&core.TapStoreThrough == 0:
				ms.events = append(ms.events, l2Event{addr: geom.BlockBase(mem.Addr(ev.Addr))})
			}
		}
	})
	if err != nil {
		return nil, err
	}
	replayedRefs.Add(uint64(tr.store.Len()))
	v, _ := l2StreamCache.LoadOrStore(key, ms)
	return v.(*l2MissStream), nil
}

// fills counts the stream's demand fills: the L1 misses of the trace.
func (ms *l2MissStream) fills() uint64 {
	var n uint64
	for _, ev := range ms.events {
		if !ev.write {
			n++
		}
	}
	return n
}

// l2LocalHitRate replays a miss stream through one secondary cache
// configuration and returns the local hit rate in percent.
func (ms *l2MissStream) l2LocalHitRate(ctx context.Context, cfg cache.Config) (float64, error) {
	hrs, err := ms.l2LocalHitRates(ctx, []cache.Config{cfg})
	if err != nil {
		return 0, err
	}
	return hrs[0], nil
}

// l2LocalHitRates replays a miss stream through several secondary
// cache configurations in one pass over the events — the Table 4
// search probes six (assoc, block) shapes per cache size, and the
// event list only has to stream through the host's caches once for
// all of them. Hit rates return in percent, in configuration order,
// identical to separate l2LocalHitRate calls. ctx is polled every
// ReplayBatchLen events.
func (ms *l2MissStream) l2LocalHitRates(ctx context.Context, cfgs []cache.Config) ([]float64, error) {
	caches := make([]*cache.Cache, len(cfgs))
	for i, cfg := range cfgs {
		l2, err := cache.New(cfg)
		if err != nil {
			return nil, err
		}
		caches[i] = l2
	}
	done := ctx.Done()
	for i, ev := range ms.events {
		if ev.write {
			for _, l2 := range caches {
				l2.Write(uint64(ev.addr))
			}
		} else {
			for _, l2 := range caches {
				l2.Read(uint64(ev.addr))
			}
		}
		if i%trace.ReplayBatchLen == trace.ReplayBatchLen-1 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
	}
	hrs := make([]float64, len(caches))
	for i, l2 := range caches {
		hrs[i] = 100 * l2.Stats().HitRate()
	}
	return hrs, nil
}
