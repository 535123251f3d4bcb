// Command perfbench is the repository's benchmark. It drives an
// in-process Bamboo deployment through the public cluster and client
// API with two open-loop clients at fixed absolute rates (closed-loop
// clients with a fixed number in flight for capacity), checks that
// the replicas stayed correct, and prints the end-to-end metrics or,
// with --trace 1, the per-layer breakdown, each with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through perfbench/run.sh from the repository root, which
// builds it first:
//
//	bash perfbench/run.sh --workload kv-read-mostly --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/bamboo-bft/bamboo/internal/cluster"
)

// endToEnd lists the metrics of an untraced run with their units.
var endToEnd = map[string]string{
	"setup_s":        "s",
	"latency_p50_ms": "ms",
	"latency_p95_ms": "ms",
	"capacity_tx_s":  "tx/s",
	"cpu_us_per_tx":  "us",
	"heap_peak_mb":   "MB",
}

// perLayer lists the metrics of a traced run with their units. The
// overhead.* entries are added from endToEnd.
var perLayer = map[string]string{
	"workload.gen_lag_ms":        "ms",
	"latency.samples":            "count",
	"latency_p99_ms":             "ms",
	"rss_peak_mb":                "MB",
	"network.msgs_per_tx":        "count",
	"network.bytes_per_tx":       "B",
	"codec.encode_us_per_block":  "us",
	"codec.decode_us_per_block":  "us",
	"codec.bytes_per_block":      "B",
	"crypto.sign_us":             "us",
	"crypto.verify_us":           "us",
	"crypto.verify_qc_us":        "us",
	"quorum.add_us_per_vote":     "us",
	"safety.rules_us_per_block":  "us",
	"forest.add_us_per_block":    "us",
	"forest.commit_us_per_block": "us",
	"mempool.add_us_per_tx":      "us",
	"mempool.batch_us_per_block": "us",
	"mempool.reject_ratio":       "ratio",
	"kvstore.apply_us_per_tx":    "us",
	"ledger.append_us_per_block": "us",
	"ledger.bytes_per_block":     "B",
	"ledger.read_us_per_block":   "us",
	"wal.append_us":              "us",
	"wal.syncs_per_block":        "count",
	"wal.sync_p50_us":            "us",
	"stage.verify_ms":            "ms",
	"stage.vote_ms":              "ms",
	"stage.qc_ms":                "ms",
	"stage.commit_ms":            "ms",
	"stage.execute_ms":           "ms",
	"stage.unattributed_ms":      "ms",
	"chain.txs_per_block":        "count",
	"chain.blocks_per_s":         "1/s",
	"chain.cgr":                  "ratio",
	"pacemaker.timeouts":         "count",
	"trace.stamp_ns":             "ns",
	"cpu.unattributed_us_per_tx": "us",
	"unavailable_s":              "s",
	"recovery_s":                 "s",
	"slo_miss_ratio":             "ratio",
}

func init() {
	for name, unit := range endToEnd {
		perLayer["overhead."+name] = unit
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 30, "measured seconds")
	traced := flag.Int("trace", 0, "1 for the traced run and its per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for the run's files")
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds < 15 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s≥15> --trace <0|1>\n")
		os.Exit(2)
	}
	root := filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep := run(w, *seed, *seconds, *traced == 1, root, *workdir)
	_ = os.RemoveAll(root)
	printReport(rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

// run measures the workload. Untraced, it reports the end-to-end
// metrics. Traced, it measures once untraced and once traced, replays
// the traced run's committed chain through every layer, and reports
// the per-layer metrics plus the tracing overhead.
func run(w spec, seed int64, seconds int, traced bool, root, workdir string) report {
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", w.name, seed, seconds, traced)
	base := measure(w, seed, seconds, root, nil)
	if !traced {
		fmt.Printf("latency percentiles from %d samples\n", base.samples)
		rep := report{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
		for name, v := range base.endToEnd() {
			rep.Metrics[name] = metric{v, endToEnd[name]}
		}
		return finishReport(rep, base.errs)
	}

	var ch *chain
	var chErr error
	o := measure(w, seed, seconds, root, func(d *deployment, m0, m1 mark) {
		ch, chErr = readChain(d.cfg, d.ledgerPath(), m0.height+1, m1.height)
	})
	rep := report{Attempted: base.attempted + o.attempted, Failed: base.failed + o.failed, Metrics: map[string]metric{}}
	errs := append(append([]string(nil), base.errs...), o.errs...)
	values := o.live
	values["latency.samples"] = float64(o.samples)
	untracedE2E, tracedE2E := base.endToEnd(), o.endToEnd()
	for name := range endToEnd {
		values["overhead."+name] = tracedE2E[name] - untracedE2E[name]
	}
	if chErr != nil {
		errs = append(errs, fmt.Sprintf("replay: %v", chErr))
	}
	// Without a chain the traced run failed its gate, already reported.
	if ch != nil {
		if err := traceLayers(w, ch, o, values, root, workdir); err != nil {
			errs = append(errs, err.Error())
		}
	}
	for name, unit := range perLayer {
		rep.Metrics[name] = metric{values[name], unit}
	}
	return finishReport(rep, errs)
}

// traceLayers replays the chain with every layer call recorded as a
// span, adds the per-layer costs and the CPU they leave unattributed
// to values, and writes the spans out.
func traceLayers(w spec, ch *chain, o *outcome, values map[string]float64, root, workdir string) error {
	rec := newRecorder()
	layers, err := ch.replay(rec, root, w.gen.Stores())
	if err != nil {
		return err
	}
	for k, v := range layers {
		values[k] = v
	}
	values["cpu.unattributed_us_per_tx"] = o.cpuUsPerTx - attributed(w, ch.cfg.N, values)
	path := filepath.Join(workdir, fmt.Sprintf("spans-%s.jsonl", w.name))
	if err := rec.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("%d spans written to %s\n", len(rec.spans), path)
	return nil
}

func finishReport(rep report, errs []string) report {
	for _, e := range errs {
		fmt.Printf("FAILED %s\n", e)
	}
	rep.Correct = len(errs) == 0
	return rep
}

func (o *outcome) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":        o.setupS,
		"latency_p50_ms": o.p50ms,
		"latency_p95_ms": o.p95ms,
		"capacity_tx_s":  o.capacity,
		"cpu_us_per_tx":  o.cpuUsPerTx,
		"heap_peak_mb":   o.heapMB,
	}
}

// attributed estimates the CPU microseconds per committed transaction
// that the replayed layers account for, summed over every replica of
// an n-replica cluster. Per block, the leader signs the proposal and
// every replica signs a vote; the n-1 followers verify the proposal
// signature and the QC it carries, and the next leader verifies and
// collects n votes; every replica runs the rules, the forest, the
// ledger and the lifecycle stamps; the proposal is encoded and decoded
// once per follower on the TCP backend only. Per transaction, one
// replica admits it to its pool and every replica executes it.
func attributed(w spec, n int, v map[string]float64) float64 {
	tpb := v["chain.txs_per_block"]
	if tpb == 0 {
		return 0
	}
	perBlock := 1 / tpb
	fn := float64(n)
	sum := v["crypto.sign_us"]*(1+fn)*perBlock +
		v["crypto.verify_us"]*(2*fn-1)*perBlock +
		v["crypto.verify_qc_us"]*(fn-1)*perBlock +
		v["quorum.add_us_per_vote"]*fn*perBlock +
		(v["safety.rules_us_per_block"]+v["forest.add_us_per_block"]+
			v["forest.commit_us_per_block"]+v["ledger.append_us_per_block"])*fn*perBlock +
		v["trace.stamp_ns"]/1e3*stampsPerBlock*fn*perBlock +
		v["wal.append_us"]*v["wal.syncs_per_block"]*perBlock +
		v["mempool.batch_us_per_block"]*perBlock +
		v["mempool.add_us_per_tx"]
	if w.backend == cluster.BackendTCP {
		sum += (v["codec.encode_us_per_block"] + v["codec.decode_us_per_block"]) * (fn - 1) * perBlock
	}
	if w.gen.Stores() {
		sum += v["kvstore.apply_us_per_tx"] * fn
	}
	return sum
}

func printReport(rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
}
