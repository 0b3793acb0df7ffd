package bench

import (
	"fmt"
	"time"

	"aiacc/cluster"
	"aiacc/engine"
	"aiacc/internal/stats"
	"aiacc/model"
)

// AblationSync isolates the synchronization protocol: identical AIACC
// engines with decentralized vs master-based readiness agreement.
func (s *Suite) AblationSync() (Table, error) {
	t := Table{
		ID:     "ablation-sync",
		Title:  "Ablation: decentralized vs master gradient synchronization",
		Header: []string{"model", "gpus", "decentralized samples/s", "master samples/s", "gain"},
		Notes:  []string{"the master coordinator's cost grows with workers and tensor count (§V-A)"},
	}
	cases := []struct {
		m    model.Model
		gpus int
	}{
		{m: model.ResNet50(), gpus: 64},
		{m: model.ResNet50(), gpus: 256},
		{m: model.CTR(), gpus: 64},
		{m: model.CTR(), gpus: 128},
	}
	for _, c := range cases {
		dec := baseConfig(c.m, c.gpus, cluster.AIACC)
		decRes, err := simulate(dec)
		if err != nil {
			return t, err
		}
		mas := dec
		mas.Engine.Coordinator = engine.Master
		masRes, err := simulate(mas)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			c.m.Name, fmt.Sprintf("%d", c.gpus),
			fmtTput(decRes.Throughput), fmtTput(masRes.Throughput),
			fmtX(stats.Speedup(masRes.Throughput, decRes.Throughput)),
		})
	}
	return t, nil
}

// AblationStreams sweeps the concurrent stream count on a
// communication-bound model.
func (s *Suite) AblationStreams() (Table, error) {
	t := Table{
		ID:     "ablation-streams",
		Title:  "Ablation: concurrent communication streams, VGG-16 @32 GPUs",
		Header: []string{"streams", "samples/s", "NIC utilization", "exposed comm"},
		Notes:  []string{"diminishing returns once the link utilization ceiling is reached (§II-E model)"},
	}
	for _, n := range []int{1, 2, 4, 8, 12, 16, 24} {
		cfg := baseConfig(model.VGG16(), 32, cluster.AIACC)
		cfg.Engine.Streams = n
		res, err := simulate(cfg)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), fmtTput(res.Throughput),
			fmt.Sprintf("%.0f%%", res.NICUtilization*100), fmtDur(res.ExposedComm),
		})
	}
	return t, nil
}

// AblationGranularity sweeps the all-reduce unit size.
func (s *Suite) AblationGranularity() (Table, error) {
	t := Table{
		ID:     "ablation-granularity",
		Title:  "Ablation: all-reduce unit granularity, ResNet-50 @64 GPUs",
		Header: []string{"granularity", "samples/s", "units/iter", "sync rounds/iter", "exposed comm"},
		Notes:  []string{"small units overlap better but pay per-unit ring latency; large units expose a tail (§V-B)"},
	}
	for _, g := range []int64{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20} {
		cfg := baseConfig(model.ResNet50(), 64, cluster.AIACC)
		cfg.Engine.GranularityBytes = g
		res, err := simulate(cfg)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			stats.FormatBytes(g), fmtTput(res.Throughput),
			fmt.Sprintf("%d", res.Units), fmt.Sprintf("%d", res.SyncRounds),
			fmtDur(res.ExposedComm),
		})
	}
	return t, nil
}

// AblationAlgorithm compares flat ring and hierarchical (tree) all-reduce.
func (s *Suite) AblationAlgorithm() (Table, error) {
	t := Table{
		ID:     "ablation-algorithm",
		Title:  "Ablation: ring vs hierarchical all-reduce",
		Header: []string{"model", "gpus", "ring samples/s", "hierarchical samples/s", "ring/hier"},
		Notes:  []string{"the paper's auto-tuner selected ring in its (uncongested) evaluation; tree helps when inter-node links are shared/congested"},
	}
	for _, c := range []struct {
		m    model.Model
		gpus int
	}{
		{m: model.ResNet50(), gpus: 32},
		{m: model.ResNet50(), gpus: 256},
		{m: model.VGG16(), gpus: 64},
	} {
		ring := baseConfig(c.m, c.gpus, cluster.AIACC)
		ringRes, err := simulate(ring)
		if err != nil {
			return t, err
		}
		hier := ring
		hier.Engine.Algorithm = engine.Hierarchical
		hierRes, err := simulate(hier)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			c.m.Name, fmt.Sprintf("%d", c.gpus),
			fmtTput(ringRes.Throughput), fmtTput(hierRes.Throughput),
			fmtX(stats.Speedup(hierRes.Throughput, ringRes.Throughput)),
		})
	}
	return t, nil
}

// AblationCongestion degrades the inter-node link (shared-tenant burst
// traffic, §V-B) and shows the hierarchical all-reduce overtaking the flat
// ring — the situation the paper says tree all-reduce exists for.
func (s *Suite) AblationCongestion() (Table, error) {
	t := Table{
		ID:     "ablation-congestion",
		Title:  "Ablation: ring vs hierarchical under inter-node congestion, ResNet-50 @64 GPUs",
		Header: []string{"available inter-node bw", "ring samples/s", "hierarchical samples/s", "hier/ring"},
		Notes: []string{
			"paper §V-B: tree all-reduce is useful when physical links become congested",
			"due to burst communications from other shared cloud users",
		},
	}
	for _, frac := range []float64{1.0, 0.5, 0.25, 0.125} {
		mk := func(algo engine.Algorithm) (cluster.Result, error) {
			cfg := baseConfig(model.ResNet50(), 64, cluster.AIACC)
			// Congestion both steals bandwidth and explodes queueing delay:
			// per-hop latency grows quadratically as the link saturates.
			cfg.Topology.Inter.CapacityGbps *= frac
			cal := cluster.DefaultCalibration()
			cal.RingHopLatency = time.Duration(float64(cal.RingHopLatency) / (frac * frac))
			cfg.Calibration = &cal
			cfg.Engine.Algorithm = algo
			return simulate(cfg)
		}
		ring, err := mk(engine.Ring)
		if err != nil {
			return t, err
		}
		hier, err := mk(engine.Hierarchical)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f Gbps (%.0f%%)", 30*frac, frac*100),
			fmtTput(ring.Throughput), fmtTput(hier.Throughput),
			fmtX(stats.Speedup(ring.Throughput, hier.Throughput)),
		})
	}
	return t, nil
}

// AblationCompression compares fp32 and fp16 gradient wire formats.
func (s *Suite) AblationCompression() (Table, error) {
	t := Table{
		ID:     "ablation-fp16",
		Title:  "Ablation: fp16 gradient compression",
		Header: []string{"model", "gpus", "fp32 samples/s", "fp16 samples/s", "gain"},
	}
	for _, c := range []struct {
		m    model.Model
		gpus int
	}{
		{m: model.VGG16(), gpus: 32},
		{m: model.BERTLarge(), gpus: 64},
		{m: model.GPT2XL(), gpus: 64},
	} {
		fp32 := baseConfig(c.m, c.gpus, cluster.AIACC)
		fp32Res, err := simulate(fp32)
		if err != nil {
			return t, err
		}
		fp16 := fp32
		fp16.Engine.WireBytesPerElem = 2
		fp16Res, err := simulate(fp16)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			c.m.Name, fmt.Sprintf("%d", c.gpus),
			fmtTput(fp32Res.Throughput), fmtTput(fp16Res.Throughput),
			fmtX(stats.Speedup(fp32Res.Throughput, fp16Res.Throughput)),
		})
	}
	return t, nil
}

// Experiment is one table of the evaluation: its id, which is the ID of the
// Table it renders, and the Suite method that renders it.
type Experiment struct {
	ID  string
	Run func(*Suite) (Table, error)
}

// Experiments lists every experiment, in paper order followed by the
// ablations. All and aiacc-bench's -experiment and -list walk it.
var Experiments = []Experiment{
	{"table1", (*Suite).TableI},
	{"fig2", (*Suite).Fig2},
	{"streamutil", (*Suite).StreamUtil},
	{"fig9", (*Suite).Fig9},
	{"fig10", (*Suite).Fig10},
	{"fig11", (*Suite).Fig11},
	{"fig12", (*Suite).Fig12},
	{"fig13", (*Suite).Fig13},
	{"fig14", (*Suite).Fig14},
	{"fig15", (*Suite).Fig15},
	{"production", (*Suite).Production},
	{"dawnbench", (*Suite).DAWNBench},
	{"autotune", (*Suite).AutoTuneStudy},
	{"ablation-sync", (*Suite).AblationSync},
	{"ablation-streams", (*Suite).AblationStreams},
	{"ablation-granularity", (*Suite).AblationGranularity},
	{"ablation-algorithm", (*Suite).AblationAlgorithm},
	{"ablation-congestion", (*Suite).AblationCongestion},
	{"ablation-fp16", (*Suite).AblationCompression},
}

// All runs every experiment in Experiments order.
func (s *Suite) All() ([]Table, error) {
	tables := make([]Table, 0, len(Experiments))
	for _, e := range Experiments {
		t, err := e.Run(s)
		if err != nil {
			return tables, fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
