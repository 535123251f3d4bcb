package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	runtimemetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/bamboo-bft/bamboo/internal/client"
	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/metrics"
	"github.com/bamboo-bft/bamboo/internal/types"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

const (
	// setupReps is how many times a run assembles the fixed-rate
	// cluster; setup_s is the median.
	setupReps = 9
	// warmup lets caches fill and the pipeline reach steady state
	// before a window opens.
	warmup = time.Second
	// settle bounds every wait for the cluster to reach a state.
	settle = 30 * time.Second
	// drainDepth is how far past the tallest honest replica every
	// honest replica must commit, once the pools are empty, before
	// their states are compared: deeper than the uncommitted 3-chain.
	drainDepth = 8
)

// deployment is one running cluster with its two clients.
type deployment struct {
	w       spec
	cfg     config.Config
	c       *cluster.Cluster
	dir     string
	setup   time.Duration
	commits commitLog
	gens    []*pacedGen
	clients []*client.Client
}

// commitLog records when the observer replica committed a block that
// carries transactions.
type commitLog struct {
	mu    sync.Mutex
	times []time.Time
}

func (l *commitLog) add(t time.Time) {
	l.mu.Lock()
	l.times = append(l.times, t)
	l.mu.Unlock()
}

// longestGap returns the longest interval inside [from, to] with no
// commit.
func (l *commitLog) longestGap(from, to time.Time) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var longest time.Duration
	prev := from
	for _, t := range l.times {
		if t.Before(from) {
			continue
		}
		if t.After(to) {
			break
		}
		if gap := t.Sub(prev); gap > longest {
			longest = gap
		}
		prev = t
	}
	if gap := to.Sub(prev); gap > longest {
		longest = gap
	}
	return longest
}

// assemble builds and starts a cluster and times it from assembly
// until the observer's first committed block.
func assemble(w spec, cfg config.Config, dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &deployment{w: w, cfg: cfg, dir: dir}
	start := time.Now()
	c, err := cluster.New(cfg, cluster.Options{
		Backend:    w.backend,
		WithStores: w.gen.Stores(),
		LedgerDir:  dir,
	})
	if err != nil {
		return nil, fmt.Errorf("assemble %s: %w", w.name, err)
	}
	d.c = c
	obs := c.Node(c.Observer())
	obs.AddCommitListener(func(_ types.View, _ types.Hash, txs []types.Transaction) {
		if len(txs) > 0 {
			d.commits.add(time.Now())
		}
	})
	c.Start()
	if err := waitFor(settle, func() bool { return obs.Status().CommittedHeight >= 1 }); err != nil {
		c.Stop()
		return nil, fmt.Errorf("assemble %s: no first commit: %w", w.name, err)
	}
	d.setup = time.Since(start)
	return d, nil
}

// startLoad attaches the two clients, each with its own seeded
// generator, and starts each with run.
func (d *deployment) startLoad(seed int64, run func(*client.Client)) error {
	for i := 0; i < 2; i++ {
		cl, err := d.c.NewClient()
		if err != nil {
			return err
		}
		inner, err := d.w.gen.New(d.w.payload, seed*16+int64(i)+1)
		if err != nil {
			return err
		}
		g := newPacedGen(inner)
		cl.SetWorkload(g)
		d.gens = append(d.gens, g)
		d.clients = append(d.clients, cl)
		run(cl)
	}
	return nil
}

// stop tears the deployment down and removes its files.
func (d *deployment) stop() {
	d.c.Stop()
	_ = os.RemoveAll(d.dir)
}

// ledgerPath is the observer replica's ledger file.
func (d *deployment) ledgerPath() string {
	return filepath.Join(d.dir, fmt.Sprintf("replica-%d.ledger", d.c.Observer()))
}

// mark is a reading of every live counter the benchmark windows.
type mark struct {
	at          time.Time
	attempted   uint64
	committed   uint64
	lat         metrics.HistData
	lag         metrics.HistData
	cpu         time.Duration
	chainTx     uint64
	chainBlocks uint64
	msgs, bytes uint64
	admitted    uint64
	rejected    uint64
	stages      map[string]metrics.HistData
	walSyncs    uint64
	walSync     metrics.HistData
	timeouts    uint64
	height      uint64
	heapLiveMB  float64
}

// cpuTime is the process's user plus system CPU time. Getrusage on
// the calling process fails only for an invalid argument.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLiveMB is the heap the last garbage collection found live.
func heapLiveMB() float64 {
	s := []runtimemetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	runtimemetrics.Read(s)
	if s[0].Value.Kind() != runtimemetrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (d *deployment) mark() mark {
	m := mark{at: time.Now(), cpu: cpuTime(), heapLiveMB: heapLiveMB(), stages: map[string]metrics.HistData{}}
	for i, cl := range d.clients {
		m.attempted += d.gens[i].attempted.Load()
		m.committed += cl.Committed()
		m.lat.Merge(cl.Latency().Export())
		m.lag.Merge(d.gens[i].lag.Export())
	}
	obs := d.c.Node(d.c.Observer()).Tracker().Snapshot()
	m.chainTx, m.chainBlocks = obs.TxCommitted, obs.BlocksCommitted
	m.height = d.c.Node(d.c.Observer()).Status().CommittedHeight
	m.msgs, m.bytes, _ = d.c.NetworkStats()
	for i := 1; i <= d.cfg.N; i++ {
		ps := d.c.Node(types.NodeID(i)).PoolStats()
		m.admitted += ps.Admitted
		m.rejected += ps.Rejected
	}
	for _, n := range d.c.HonestNodes() {
		for name, h := range n.Tracker().Snapshot().Stages {
			merged := m.stages[name]
			merged.Merge(h)
			m.stages[name] = merged
		}
		m.walSyncs += n.Pipeline().Snapshot().WALSyncs
		m.walSync.Merge(n.Pipeline().Hists()["wal_sync"])
		m.timeouts += n.TimeoutsFired()
	}
	return m
}

// slices marks the start of a window and then every second of it,
// ending with a mark at its close.
func (d *deployment) slices(window time.Duration) []mark {
	marks := []mark{d.mark()}
	for end := marks[0].at.Add(window); time.Until(end) > 0; {
		time.Sleep(min(time.Second, time.Until(end)))
		marks = append(marks, d.mark())
	}
	return marks
}

// heights returns every replica's committed height, indexed by ID-1.
func (d *deployment) heights() []uint64 {
	hs := make([]uint64, d.cfg.N)
	for i := range hs {
		hs[i] = d.c.Node(types.NodeID(i + 1)).Status().CommittedHeight
	}
	return hs
}

func maxOf(hs []uint64) uint64 {
	var m uint64
	for _, h := range hs {
		if h > m {
			m = h
		}
	}
	return m
}

// waitFor polls cond every 200µs, fine enough to time set-up to well
// under a tenth of its length, until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// finish stops the load, lets every honest replica commit what the
// pools still hold, tears the cluster down and applies the
// correctness gate: the replicas agree on the chain, no safety
// violation fired, every honest replica caught up, honest replicas
// hold byte-identical state, and kvbank transfers conserved money.
func (d *deployment) finish() error {
	for _, cl := range d.clients {
		cl.Stop()
	}
	// Requests still in flight on the links land within a few link
	// delays.
	time.Sleep(50 * time.Millisecond)
	honest := d.c.HonestNodes()
	if err := waitFor(settle, func() bool {
		for _, n := range honest {
			if n.Status().Pool != 0 {
				return false
			}
		}
		return true
	}); err != nil {
		return fmt.Errorf("pools did not drain: %w", err)
	}
	if err := d.c.WaitForHeight(maxOf(d.heights())+drainDepth, settle); err != nil {
		return fmt.Errorf("not recovered: %w", err)
	}
	if err := d.c.ConsistencyCheck(); err != nil {
		return err
	}
	if v := d.c.Violations(); v != 0 {
		return fmt.Errorf("%d safety violations", v)
	}
	d.c.Stop()
	if !d.w.gen.Stores() {
		return nil
	}
	var want []byte
	for _, n := range honest {
		st := d.c.Store(n.ID())
		state := st.SnapshotState()
		if want == nil {
			want = state
		} else if !bytes.Equal(state, want) {
			return fmt.Errorf("replica %s state differs from replica %s", n.ID(), honest[0].ID())
		}
		if d.w.gen.Kind == workload.KindKVBank {
			if err := conserved(d.w.gen, st.BalanceOr); err != nil {
				return fmt.Errorf("replica %s: %w", n.ID(), err)
			}
		}
	}
	return nil
}

// conserved checks that the kvbank accounts still hold the money they
// started with.
func conserved(g workload.Spec, balanceOr func(string, uint64) uint64) error {
	initial := g.InitialBalance
	if initial == 0 {
		initial = 1000
	}
	var total uint64
	for i := 0; i < g.Accounts; i++ {
		total += balanceOr(workload.Account(i), initial)
	}
	if want := initial * uint64(g.Accounts); total != want {
		return fmt.Errorf("kvbank total %d, want %d", total, want)
	}
	return nil
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func runDir(root, name string, i int) string {
	return filepath.Join(root, fmt.Sprintf("%s-%d", name, i))
}
