package main

import (
	"time"

	"github.com/bamboo-bft/bamboo/internal/cluster"
	"github.com/bamboo-bft/bamboo/internal/config"
	"github.com/bamboo-bft/bamboo/internal/workload"
)

// spec declares one benchmark workload. Rates are absolute offered
// loads in transactions per second, fixed here and never calibrated
// against the run's own saturation point, so a faster build is tested
// at the same load as a slower one.
type spec struct {
	name    string
	backend string
	n       int
	crypto  string
	bsize   int
	payload int
	gen     workload.Spec

	// memSize is each replica's pool capacity.
	memSize int
	// fixedRate drives the fixed-rate run: a steady window and, when
	// crashFor is set, the crash of crashID for that long and the
	// recovery after it.
	fixedRate float64
	crashFor  time.Duration
	// overInFlight, when set, drives the overload run on a fresh
	// cluster: two closed-loop clients keep this many transactions in
	// flight between them, enough to fill every block, so the
	// committed rate is the capacity.
	overInFlight int

	// sloLimit is the commit latency beyond which a transaction
	// counts as missing its service level.
	sloLimit time.Duration
}

// crashID is the replica crashed in every fixed-rate run.
const crashID = 2

var workloads = []spec{
	{
		// Crypto is cheap and the hot path is the mempool, core,
		// forest, kvstore, ledger and trace. The fixed rate sits well
		// below saturation, so latency is pipeline-bound and steady.
		// 4096 transactions in flight fill every 400-transaction
		// block; twice as many commit no more. No crash: the fault
		// is crash-bank-tcp's, and the steady window needs the time.
		name: "kv-read-mostly", backend: cluster.BackendSwitch,
		n: 4, crypto: "hmac", bsize: 400, memSize: 1 << 17,
		gen:          workload.Spec{Kind: workload.KindKV, Keys: 4096, WriteRatio: 0.1, ZipfS: 1.1},
		fixedRate:    40000,
		overInFlight: 4096, sloLimit: 50 * time.Millisecond,
	},
	{
		// Signature verification and certificate fan-in dominate; the
		// mempool and kvstore sit idle, so a change to either should
		// show no change here. No crash: with every core busy on
		// signatures, a crash here sometimes sets off a run of view
		// timeouts lasting from seconds to more than thirty.
		name: "sig-n16", backend: cluster.BackendSwitch,
		n: 16, crypto: "ed25519", bsize: 100, payload: 128, memSize: 1 << 17,
		gen:       workload.Spec{Kind: workload.KindNoop},
		fixedRate: 2000, sloLimit: 250 * time.Millisecond,
	},
	{
		// Real sockets exercise the codec and TCP redial; the crash
		// exercises the pacemaker, ledger catch-up and, with
		// all-write transfers, the kvstore's write path.
		name: "crash-bank-tcp", backend: cluster.BackendTCP,
		n: 4, crypto: "hmac", bsize: 400, memSize: 1 << 17,
		gen:       workload.Spec{Kind: workload.KindKVBank, Accounts: 512},
		fixedRate: 20000, crashFor: 2 * time.Second,
		sloLimit: 100 * time.Millisecond,
	},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// config builds the cluster configuration: HotStuff over 200µs ± 50µs
// links with the 1 Gbps bandwidth model, the same substrate the
// repository's figure runners use.
func (w spec) config(seed int64) config.Config {
	cfg := config.Default()
	cfg.Protocol = config.ProtocolHotStuff
	cfg.ApplyProtocolDefaults()
	cfg.N = w.n
	cfg.CryptoScheme = w.crypto
	cfg.BlockSize = w.bsize
	cfg.PayloadSize = w.payload
	cfg.MemSize = w.memSize
	cfg.Seed = seed
	cfg.Delay = 200 * time.Microsecond
	cfg.DelayStd = 50 * time.Microsecond
	cfg.Bandwidth = 1.25e8
	cfg.Timeout = 100 * time.Millisecond
	cfg.MaxNetworkDelay = 5 * time.Millisecond
	return cfg
}
