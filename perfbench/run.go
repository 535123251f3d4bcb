package main

import (
	"fmt"
	"time"

	"github.com/bamboo-bft/bamboo/internal/client"
	"github.com/bamboo-bft/bamboo/internal/metrics"
)

// outcome is everything one measurement of a workload produced.
type outcome struct {
	// End-to-end metrics.
	setupS, p50ms, p95ms, capacity, cpuUsPerTx, heapMB float64
	// samples is the latency sample count behind the percentiles.
	samples uint64

	// attempted counts generated transactions; failed counts those
	// generated in a run whose correctness gate failed.
	attempted, failed uint64
	errs              []string
	// invalid says why the fixed-rate run did not offer its load.
	invalid error

	// overRates are the committed rates of the overload windows'
	// one-second slices; capacity is their median. poolOffered and
	// poolRejected count the pools' admissions over those windows.
	overRates                 []float64
	poolOffered, poolRejected uint64

	// Live per-layer reads.
	live map[string]float64
}

func newOutcome() *outcome {
	return &outcome{live: map[string]float64{}}
}

// measure runs one measurement: half the overload window on a fresh
// cluster, the fixed-rate run, and the other half on another. The
// host's speed drifts over seconds, so capacity sampled at both ends
// of the run swings less between runs than one window would.
func measure(w spec, seed int64, seconds int, root string, keep func(*deployment, mark, mark)) *outcome {
	first := newOutcome()
	first.measureOverload(w, seed, seconds, root, 0)
	o := measureFixed(w, seed, seconds, root, keep)
	o.attempted += first.attempted
	o.failed += first.failed
	o.errs = append(o.errs, first.errs...)
	o.overRates = first.overRates
	o.poolOffered, o.poolRejected = first.poolOffered, first.poolRejected
	o.measureOverload(w, seed, seconds, root, 1)
	return o
}

func (o *outcome) fail(phase string, attempted uint64, err error) {
	o.failed += attempted
	o.errs = append(o.errs, fmt.Sprintf("%s: %v", phase, err))
}

// recoveryWatch is how long the fixed-rate run keeps measuring after a
// crash ends.
const recoveryWatch = 2500 * time.Millisecond

// phases splits the measured seconds: the crash and recoveryWatch
// after it, 40% for the overload windows, and the rest for the
// steady window, each only where the workload has that phase.
func phases(w spec, seconds int) (steady, fault, over time.Duration) {
	total := time.Duration(seconds) * time.Second
	if w.crashFor > 0 {
		fault = w.crashFor + recoveryWatch
	}
	if w.overInFlight > 0 {
		over = total * 4 / 10
	}
	return total - fault - over, fault, over
}

// measureFixed runs the fixed-rate run and reads the process's peak
// memory after it.
// A run whose generator fell behind its schedule did not offer the
// workload's rate; it is measured once more, and if it falls behind
// again the run is reported with an INVALID line. Lateness comes from
// the host starving the process, not from a wrong output, so it does
// not fail the run's correctness. keep, when non-nil, is called with
// the deployment and its steady-window marks once the deployment
// passed its correctness gate, while its ledger files still exist.
func measureFixed(w spec, seed int64, seconds int, root string, keep func(*deployment, mark, mark)) *outcome {
	steady, fault, _ := phases(w, seconds)
	var o *outcome
	for attempt := 1; attempt <= 2; attempt++ {
		o = newOutcome()
		o.fixedRun(w, seed, root, steady, fault, keep)
		// A run that failed its gate is reported, never measured over.
		if o.invalid == nil || len(o.errs) > 0 {
			break
		}
		fmt.Printf("fixed-rate attempt %d invalid: %v\n", attempt, o.invalid)
	}
	if o.invalid != nil {
		fmt.Printf("INVALID fixed-rate run: %v\n", o.invalid)
	}
	o.live["rss_peak_mb"] = peakRSSMB()
	return o
}

// measureOverload runs overload window part, 0 or 1, if the workload
// has an overload phase.
func (o *outcome) measureOverload(w spec, seed int64, seconds int, root string, part int) {
	if _, _, over := phases(w, seconds); over > 0 {
		o.overloadRun(w, seed+1+int64(part), runDir(root, "overload", part), over/2)
	}
}

func (o *outcome) fixedRun(w spec, seed int64, root string, steady, fault time.Duration, keep func(*deployment, mark, mark)) {
	cfg := w.config(seed)
	var setups []float64
	var d *deployment
	for i := 0; i < setupReps; i++ {
		var err error
		d, err = assemble(w, cfg, runDir(root, "fixed", i))
		if err != nil {
			o.fail("fixed-rate setup", 0, err)
			return
		}
		setups = append(setups, d.setup.Seconds())
		if i < setupReps-1 {
			d.stop()
		}
	}
	defer d.stop()
	o.setupS = median(setups)
	if err := d.startLoad(seed, func(cl *client.Client) { cl.RunOpenLoop(w.fixedRate / 2) }); err != nil {
		o.fail("fixed-rate load", 0, err)
		return
	}
	time.Sleep(warmup)
	// The steady window is read once a second: the latency
	// percentiles and CPU per transaction are medians over the
	// one-second slices, so a slow spell on a shared host moves the
	// slices it covers, not the run, as long as it covers fewer than
	// half of them.
	marks := d.slices(steady)
	m0, m1 := marks[0], marks[len(marks)-1]
	o.live["chain.cgr"] = d.c.AggregateChain().CGR
	o.live["recovery_s"] = 0

	m2 := m1
	if w.crashFor > 0 {
		m2 = o.crash(d, w, fault)
	} else {
		// Without a fault, unavailability is the median over the
		// one-second slices of the longest commit gap.
		var gaps []float64
		for i := 1; i < len(marks); i++ {
			gaps = append(gaps, d.commits.longestGap(marks[i-1].at, marks[i].at).Seconds())
		}
		o.live["unavailable_s"] = median(gaps)
	}

	lat := histDelta(m1.lat, m0.lat)
	o.samples = lat.Count
	var p50s, p95s, p99s, cpus []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		p50s = append(p50s, ms(quantile(histDelta(b.lat, a.lat), 0.50)))
		p95s = append(p95s, ms(quantile(histDelta(b.lat, a.lat), 0.95)))
		p99s = append(p99s, ms(quantile(histDelta(b.lat, a.lat), 0.99)))
		if tx := b.chainTx - a.chainTx; tx > 0 {
			cpus = append(cpus, float64((b.cpu-a.cpu).Microseconds())/float64(tx))
		}
	}
	o.p50ms = median(p50s)
	o.p95ms = median(p95s)
	o.live["latency_p99_ms"] = median(p99s)
	for _, m := range append(marks, m2) {
		o.heapMB = max(o.heapMB, m.heapLiveMB)
	}
	if w.overInFlight == 0 {
		// Without an overload run, capacity reads the committed rate
		// at the fixed load: a lower bound that drops when the fixed
		// rate can no longer be carried.
		o.capacity = float64(m1.chainTx-m0.chainTx) / m1.at.Sub(m0.at).Seconds()
	}
	if len(cpus) > 0 {
		o.cpuUsPerTx = median(cpus)
	}
	o.live["slo_miss_ratio"] = sloMiss(m0, m2, w.sloLimit)
	o.attempted += d.gens[0].attempted.Load() + d.gens[1].attempted.Load()
	o.liveReads(m0, m1, m2)

	// A generator running later than half the latency limit could not
	// offer the workload's rate.
	lag := quantile(histDelta(m1.lag, m0.lag), 0.99)
	if limit := w.sloLimit / 2; time.Duration(lag) > limit {
		o.invalid = fmt.Errorf("generator p99 lateness %.1f ms over %v", ms(lag), limit)
	}
	if len(o.errs) > 0 {
		o.failed += o.attempted
	} else if err := d.finish(); err != nil {
		o.fail("fixed-rate gate", o.attempted, err)
	} else if keep != nil {
		keep(d, m0, m1)
	}
}

// crash crashes one replica under the fixed-rate load, restarts it,
// and watches the observer's commits and the restarted replica's
// catch-up until the fault window closes.
func (o *outcome) crash(d *deployment, w spec, fault time.Duration) mark {
	crashAt := time.Now()
	d.c.Crash(crashID)
	time.Sleep(w.crashFor)
	// Restart just after the observer's view timer fires, so every
	// run restarts at the same pacemaker phase instead of at a random
	// point of a view timeout. A timer that does not fire within two
	// timeouts leaves the restart where it is.
	obs := d.c.Node(d.c.Observer())
	fired := obs.TimeoutsFired()
	_ = waitFor(2*d.cfg.Timeout, func() bool { return obs.TimeoutsFired() > fired })
	topAtRestart := maxOf(d.heights())
	d.c.Restart(crashID)
	restartAt := time.Now()
	keepWindow := uint64(d.cfg.KeepWindow())
	if err := waitFor(settle, func() bool {
		hs := d.heights()
		h := hs[crashID-1]
		return h > topAtRestart && h+keepWindow >= maxOf(hs)
	}); err != nil {
		o.fail("fixed-rate recovery", 0, err)
	}
	o.live["recovery_s"] = time.Since(restartAt).Seconds()
	if rest := time.Until(crashAt.Add(fault)); rest > 0 {
		time.Sleep(rest)
	}
	m := d.mark()
	o.live["unavailable_s"] = d.commits.longestGap(crashAt, m.at).Seconds()
	return m
}

// overPool is each replica's pool capacity in the overload run.
const overPool = 1 << 14

// overOpTimeout bounds each closed-loop transaction's wait, so a
// worker outlives a lost reply.
const overOpTimeout = 5 * time.Second

// overloadRun measures capacity with closed-loop clients rather than
// an open loop offered above capacity: an open loop's excess
// transactions cost the CPU that commits the rest, so its committed
// rate swung by a third between runs on a 2-core host, while a closed
// loop keeps the blocks full and offers nothing it cannot commit.
func (o *outcome) overloadRun(w spec, seed int64, dir string, window time.Duration) {
	cfg := w.config(seed)
	cfg.MemSize = overPool
	d, err := assemble(w, cfg, dir)
	if err != nil {
		o.fail("overload setup", 0, err)
		return
	}
	defer d.stop()
	if err := d.startLoad(seed, func(cl *client.Client) { cl.RunClosedLoop(w.overInFlight/2, overOpTimeout) }); err != nil {
		o.fail("overload load", 0, err)
		return
	}
	time.Sleep(warmup)
	marks := d.slices(window)
	m0, m1 := marks[0], marks[len(marks)-1]
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		o.overRates = append(o.overRates, float64(b.chainTx-a.chainTx)/b.at.Sub(a.at).Seconds())
	}
	o.capacity = median(o.overRates)

	o.poolOffered += (m1.admitted - m0.admitted) + (m1.rejected - m0.rejected)
	o.poolRejected += m1.rejected - m0.rejected
	if o.poolOffered > 0 {
		o.live["mempool.reject_ratio"] = float64(o.poolRejected) / float64(o.poolOffered)
	}
	attempted := d.gens[0].attempted.Load() + d.gens[1].attempted.Load()
	o.attempted += attempted
	if err := d.finish(); err != nil {
		o.fail("overload gate", attempted, err)
	}
}

// liveReads derives the per-layer readings the replicas export: m0 and
// m1 bound the steady window, m2 closes the crash and recovery.
func (o *outcome) liveReads(m0, m1, m2 mark) {
	l := o.live
	secs := m1.at.Sub(m0.at).Seconds()
	tx := float64(m1.chainTx - m0.chainTx)
	blocks := float64(m1.chainBlocks - m0.chainBlocks)
	l["workload.gen_lag_ms"] = ms(quantile(histDelta(m1.lag, m0.lag), 0.99))
	if tx > 0 {
		l["network.msgs_per_tx"] = float64(m1.msgs-m0.msgs) / tx
		l["network.bytes_per_tx"] = float64(m1.bytes-m0.bytes) / tx
	}
	if blocks > 0 {
		l["chain.txs_per_block"] = tx / blocks
		l["wal.syncs_per_block"] = float64(m1.walSyncs-m0.walSyncs) / blocks
	}
	l["chain.blocks_per_s"] = blocks / secs
	l["wal.sync_p50_us"] = quantile(histDelta(m1.walSync, m0.walSync), 0.5) / 1e3
	l["pacemaker.timeouts"] = float64(m2.timeouts - m0.timeouts)
	var sum float64
	for _, name := range metrics.StageNames {
		p := ms(quantile(histDelta(m1.stages[name], m0.stages[name]), 0.5))
		l["stage."+name+"_ms"] = p
		sum += p
	}
	l["stage.unattributed_ms"] = o.p50ms - sum
}

// sloMiss is the share of the transactions attempted between two marks
// that were refused, lost, or committed later than limit: everything
// but the commits inside the limit.
func sloMiss(from, to mark, limit time.Duration) float64 {
	attempted := to.attempted - from.attempted
	if attempted == 0 {
		return 0
	}
	onTime := float64(to.committed-from.committed) * fractionAtMost(histDelta(to.lat, from.lat), limit)
	return max(0, 1-onTime/float64(attempted))
}
