package bench

import (
	"fmt"
	"time"

	"aiacc/cluster"
	"aiacc/internal/stats"
	"aiacc/model"
	"aiacc/netmodel"
)

// TableI reproduces Table I: model characteristics.
func (s *Suite) TableI() (Table, error) {
	t := Table{
		ID:     "table1",
		Title:  "DNN model characteristics (measured from the implemented architectures)",
		Header: []string{"model", "#params (measured)", "#params (paper)", "fwd FLOPs (measured)", "FLOPs (paper)"},
		Notes: []string{
			"FLOPs counted as 2x multiply-accumulates; the paper mixes conventions (MACs for ResNets).",
			"ResNet-101 as published has 44.5M parameters; the paper's 29.4M appears to be a typo.",
			"BERT-Large matches the paper when counting the 24-layer encoder stack (embeddings excluded).",
		},
	}
	paper := map[string][2]string{
		"vgg16":       {"138.3M", "31G"},
		"resnet50":    {"25.6M", "4G"},
		"resnet101":   {"29.4M", "8G"},
		"transformer": {"66.5M", "145G"},
		"bertlarge":   {"302.2M", "232G"},
	}
	for _, name := range []string{"vgg16", "resnet50", "resnet101", "transformer", "bertlarge"} {
		m, err := model.ByName(name)
		if err != nil {
			return t, err
		}
		p := paper[name]
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.1fM", float64(m.NumParams())/1e6),
			p[0],
			fmt.Sprintf("%.1fG", float64(m.FwdFLOPs())/1e9),
			p[1],
		})
	}
	return t, nil
}

// Fig2 reproduces Fig. 2: Horovod throughput vs the theoretical linear
// speedup on ResNet-50.
func (s *Suite) Fig2() (Table, error) {
	t := Table{
		ID:     "fig2",
		Title:  "Horovod vs theoretical linear scaling, ResNet-50, 30Gbps TCP",
		Header: []string{"gpus", "horovod img/s", "linear img/s", "scaling efficiency"},
		Notes:  []string{"paper: ~75% efficiency at 32 GPUs"},
	}
	single, err := simulate(baseConfig(model.ResNet50(), 1, cluster.Horovod))
	if err != nil {
		return t, err
	}
	for _, g := range []int{1, 8, 16, 24, 32} {
		res, err := simulate(baseConfig(model.ResNet50(), g, cluster.Horovod))
		if err != nil {
			return t, err
		}
		eff := stats.ScalingEfficiency(single.Throughput, res.Throughput, g)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", g), fmtTput(res.Throughput),
			fmtTput(single.Throughput * float64(g)),
			fmt.Sprintf("%.0f%%", eff*100),
		})
	}
	return t, nil
}

// scalingFigure renders one Fig. 9/10-style grid: models × engines × GPU
// counts.
func (s *Suite) scalingFigure(id, title string, models []model.Model, engines []cluster.EngineKind, notes []string) (Table, error) {
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"model", "gpus"},
		Notes:  notes,
	}
	for _, e := range engines {
		t.Header = append(t.Header, e.String()+" samples/s")
	}
	t.Header = append(t.Header, "aiacc tuned params", "aiacc/horovod", "aiacc efficiency")
	for _, m := range models {
		single, err := simulate(baseConfig(m, 1, cluster.AIACC))
		if err != nil {
			return t, err
		}
		for _, g := range GPUGrid {
			row := []string{m.Name, fmt.Sprintf("%d", g)}
			var aiaccTput, horovodTput float64
			var tunedStr string
			for _, e := range engines {
				cfg := baseConfig(m, g, e)
				if e == cluster.AIACC {
					tuned, p, err := s.tunedConfig(m, g)
					if err != nil {
						return t, err
					}
					cfg, tunedStr = tuned, fmt.Sprint(p)
				}
				res, err := simulate(cfg)
				if err != nil {
					return t, err
				}
				switch e {
				case cluster.AIACC:
					aiaccTput = res.Throughput
				case cluster.Horovod:
					horovodTput = res.Throughput
				}
				row = append(row, fmtTput(res.Throughput))
			}
			row = append(row, tunedStr,
				fmtX(stats.Speedup(horovodTput, aiaccTput)),
				fmt.Sprintf("%.0f%%", stats.ScalingEfficiency(single.Throughput, aiaccTput, g)*100))
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Fig9 reproduces Fig. 9: PyTorch CV model throughput across engines.
func (s *Suite) Fig9() (Table, error) {
	return s.scalingFigure("fig9",
		"Throughput on PyTorch CV models (VGG-16, ResNet-50, ResNet-101)",
		[]model.Model{model.VGG16(), model.ResNet50(), model.ResNet101()},
		[]cluster.EngineKind{cluster.AIACC, cluster.Horovod, cluster.PyTorchDDP, cluster.BytePS},
		[]string{
			"paper: AIACC >95% efficiency on ResNet-50@256; up to 1.68x over Horovod, 2.68x over PyTorch-DDP at 256 GPUs",
			"paper: BytePS weakest without extra CPU servers",
		})
}

// Fig10 reproduces Fig. 10: PyTorch NLP model throughput across engines.
func (s *Suite) Fig10() (Table, error) {
	return s.scalingFigure("fig10",
		"Throughput on PyTorch NLP models (Transformer, BERT-Large)",
		[]model.Model{model.TransformerBase(), model.BERTLarge()},
		[]cluster.EngineKind{cluster.AIACC, cluster.Horovod, cluster.PyTorchDDP, cluster.BytePS},
		[]string{"paper: NLP models are more communication-bound; AIACC's advantage is larger than on CV"})
}

// frameworkFigure models Fig. 11/12: the same optimization transplanted to
// another DL framework, whose native baseline and runtime overhead differ.
func (s *Suite) frameworkFigure(id, framework string, overhead float64, native cluster.EngineKind, note string) (Table, error) {
	t := Table{
		ID:     id,
		Title:  fmt.Sprintf("Throughput with %s models (native engine: %s)", framework, native),
		Header: []string{"model", "gpus", "aiacc samples/s", native.String() + " samples/s", "speedup"},
		Notes:  []string{note},
	}
	cal := cluster.DefaultCalibration()
	cal.FrameworkOverhead = overhead
	for _, m := range []model.Model{model.VGG16(), model.ResNet50(), model.BERTLarge()} {
		for _, g := range []int{8, 32, 64, 128, 256} {
			ai, _, err := s.tunedConfig(m, g)
			if err != nil {
				return t, err
			}
			ai.Calibration = &cal
			aiRes, err := simulate(ai)
			if err != nil {
				return t, err
			}
			nv := baseConfig(m, g, native)
			nv.Calibration = &cal
			nvRes, err := simulate(nv)
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{
				m.Name, fmt.Sprintf("%d", g),
				fmtTput(aiRes.Throughput), fmtTput(nvRes.Throughput),
				fmtX(stats.Speedup(nvRes.Throughput, aiRes.Throughput)),
			})
		}
	}
	return t, nil
}

// Fig11 reproduces Fig. 11: TensorFlow models (native DDL ≈ Horovod-style
// all-reduce).
func (s *Suite) Fig11() (Table, error) {
	return s.frameworkFigure("fig11", "TensorFlow", 1.05, cluster.Horovod,
		"paper: up to 3.3x over Horovod at 256 GPUs; AIACC performance is portable across frameworks")
}

// Fig12 reproduces Fig. 12: MXNet models (native DDL = KVStore parameter
// server).
func (s *Suite) Fig12() (Table, error) {
	return s.frameworkFigure("fig12", "MXNet", 1.08, cluster.MXNetPS,
		"paper: MXNet's parameter-server KVStore trails all-reduce engines")
}

// Fig13 reproduces Fig. 13: hybrid data+model parallelism on ResNet-50
// (MXNet), AIACC vs the KVStore baseline.
func (s *Suite) Fig13() (Table, error) {
	t := Table{
		ID:     "fig13",
		Title:  "Hybrid data+model parallelism, ResNet-50 on MXNet (2 model shards)",
		Header: []string{"gpus", "aiacc samples/s", "mxnet-ps samples/s", "speedup"},
		Notes:  []string{"paper: 2.8x over the MXNet DDL implementation at 64 GPUs"},
	}
	for _, g := range []int{8, 16, 32, 64} {
		ai := baseConfig(model.ResNet50(), g, cluster.AIACC)
		ai.ModelParallelShards = 2
		aiRes, err := simulate(ai)
		if err != nil {
			return t, err
		}
		mx := baseConfig(model.ResNet50(), g, cluster.MXNetPS)
		mx.ModelParallelShards = 2
		mxRes, err := simulate(mx)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", g), fmtTput(aiRes.Throughput), fmtTput(mxRes.Throughput),
			fmtX(stats.Speedup(mxRes.Throughput, aiRes.Throughput)),
		})
	}
	return t, nil
}

// Fig14 reproduces Fig. 14: AIACC speedup over Horovod on BERT-Large at 16
// GPUs as the batch size varies.
func (s *Suite) Fig14() (Table, error) {
	t := Table{
		ID:     "fig14",
		Title:  "Speedup over Horovod vs batch size, BERT-Large, 16 GPUs",
		Header: []string{"batch/gpu", "aiacc seq/s", "horovod seq/s", "speedup"},
		Notes:  []string{"paper: smaller batches mean more frequent communication, so the speedup grows as batch shrinks"},
	}
	for _, batch := range []int{2, 4, 8, 16, 32} {
		ai := baseConfig(model.BERTLarge(), 16, cluster.AIACC)
		ai.BatchPerGPU = batch
		aiRes, err := simulate(ai)
		if err != nil {
			return t, err
		}
		hv := baseConfig(model.BERTLarge(), 16, cluster.Horovod)
		hv.BatchPerGPU = batch
		hvRes, err := simulate(hv)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", batch), fmtTput(aiRes.Throughput), fmtTput(hvRes.Throughput),
			fmtX(stats.Speedup(hvRes.Throughput, aiRes.Throughput)),
		})
	}
	return t, nil
}

// Fig15 reproduces Fig. 15: speedup over PyTorch-DDP on 64 RDMA-connected
// GPUs.
func (s *Suite) Fig15() (Table, error) {
	t := Table{
		ID:     "fig15",
		Title:  "Speedup over PyTorch-DDP on 64 GPUs with RDMA",
		Header: []string{"model", "aiacc samples/s", "pytorch-ddp samples/s", "speedup"},
		Notes: []string{
			"paper: 9.8x on GPT-2; ~10% extra improvement on RDMA over the TCP gains",
			"AIACC uses 16 streams + fp16 on RDMA (a single stream drives only ~8% of the fabric)",
		},
	}
	for _, m := range []model.Model{model.ResNet50(), model.VGG16(), model.BERTLarge(), model.GPT2XL()} {
		ai := baseConfig(m, 64, cluster.AIACC)
		ai.Topology = netmodel.V100RDMACluster(64)
		ai.Engine.Streams = 16
		ai.Engine.WireBytesPerElem = 2
		aiRes, err := simulate(ai)
		if err != nil {
			return t, err
		}
		dd := baseConfig(m, 64, cluster.PyTorchDDP)
		dd.Topology = netmodel.V100RDMACluster(64)
		ddRes, err := simulate(dd)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			m.Name, fmtTput(aiRes.Throughput), fmtTput(ddRes.Throughput),
			fmtX(stats.Speedup(ddRes.Throughput, aiRes.Throughput)),
		})
	}
	return t, nil
}

// StreamUtil reproduces the §III motivation measurement: link utilization vs
// concurrent stream count, and the resulting NIC utilization of the engines.
func (s *Suite) StreamUtil() (Table, error) {
	t := Table{
		ID:     "streamutil",
		Title:  "Link utilization vs concurrent communication streams (§III)",
		Header: []string{"streams", "tcp 30Gbps util", "tcp eff Gbps", "rdma 100Gbps util", "rdma eff Gbps"},
		Notes: []string{
			"paper: a single stream utilizes at most 30% of TCP and 5-10% of RDMA",
		},
	}
	tcp, rdma := netmodel.TCP30Gbps(), netmodel.RDMA100Gbps()
	for _, n := range []int{1, 2, 4, 8, 12, 16, 24} {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f%%", tcp.Utilization(n)*100),
			fmt.Sprintf("%.1f", tcp.EffectiveGbps(n)),
			fmt.Sprintf("%.0f%%", rdma.Utilization(n)*100),
			fmt.Sprintf("%.1f", rdma.EffectiveGbps(n)),
		})
	}
	hv, err := simulate(baseConfig(model.VGG16(), 32, cluster.Horovod))
	if err != nil {
		return t, err
	}
	ai, err := simulate(baseConfig(model.VGG16(), 32, cluster.AIACC))
	if err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured NIC utilization on VGG-16@32: horovod %.0f%%, aiacc %.0f%%",
			hv.NICUtilization*100, ai.NICUtilization*100))
	return t, nil
}

// Production reproduces §VIII-C's production workloads: InsightFace and the
// CTR recommender.
func (s *Suite) Production() (Table, error) {
	t := Table{
		ID:     "production",
		Title:  "Production workloads (§VIII-C): InsightFace @128 GPUs, CTR @128 GPUs",
		Header: []string{"workload", "aiacc samples/s", "horovod samples/s", "speedup", "paper"},
	}
	// InsightFace: hand-tuned Horovod baseline vs AIACC with fp16.
	ins := model.InsightFace()
	ai := baseConfig(ins, 128, cluster.AIACC)
	ai.Engine.WireBytesPerElem = 2
	ai.Engine.Streams = 16
	aiRes, err := simulate(ai)
	if err != nil {
		return t, err
	}
	hvRes, err := simulate(baseConfig(ins, 128, cluster.Horovod))
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"insightface", fmtTput(aiRes.Throughput), fmtTput(hvRes.Throughput),
		fmtX(stats.Speedup(hvRes.Throughput, aiRes.Throughput)), "3.8x @128",
	})
	// CTR: thousands of gradient tensors; the master coordinator collapses.
	ctr := model.CTR()
	aic := baseConfig(ctr, 128, cluster.AIACC)
	aic.Engine.WireBytesPerElem = 2
	aic.Engine.Streams = 16
	aicRes, err := simulate(aic)
	if err != nil {
		return t, err
	}
	hvcRes, err := simulate(baseConfig(ctr, 128, cluster.Horovod))
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{
		"ctr", fmtTput(aicRes.Throughput), fmtTput(hvcRes.Throughput),
		fmtX(stats.Speedup(hvcRes.Throughput, aicRes.Throughput)), "13.4x @128",
	})
	return t, nil
}

// DAWNBench reproduces the §VIII-C DAWNBench entry: ResNet-50 time to 93%
// top-5 on 128 V100s.
func (s *Suite) DAWNBench() (Table, error) {
	t := Table{
		ID:     "dawnbench",
		Title:  "DAWNBench-style time-to-accuracy, ResNet-50, 128 V100 GPUs",
		Header: []string{"setup", "cluster img/s", "epoch time", "time to 93% top-5"},
		Notes: []string{
			"paper: 158s using 128 V100s (earlier AIACC version, with fp16 + progressive resizing: ~12 effective full-resolution epochs)",
			"effective epochs modelled at 12 full-resolution-equivalent passes over 1.28M images",
		},
	}
	const (
		imagenet        = 1_281_167
		effectiveEpochs = 12.0
	)
	cfg, _, err := s.tunedConfig(model.ResNet50(), 128)
	if err != nil {
		return t, err
	}
	cfg.Engine.WireBytesPerElem = 2
	// The DAWNBench run used mixed precision, roughly doubling compute
	// throughput on V100 tensor cores.
	gpu := cluster.V100()
	gpu.FLOPS *= 2
	cfg.GPU = gpu
	res, err := simulate(cfg)
	if err != nil {
		return t, err
	}
	epoch := time.Duration(float64(imagenet) / res.Throughput * float64(time.Second))
	total := time.Duration(effectiveEpochs * float64(epoch))
	t.Rows = append(t.Rows, []string{
		"aiacc fp16 + tuned", fmtTput(res.Throughput), fmtDur(epoch), fmtDur(total),
	})
	return t, nil
}

// AutoTuneStudy reproduces the §VIII-D analysis of chosen parameters.
func (s *Suite) AutoTuneStudy() (Table, error) {
	t := Table{
		ID:     "autotune",
		Title:  "Auto-tuned communication parameters across deployments (§VIII-D)",
		Header: []string{"model", "gpus", "streams", "granularity", "algorithm", "segment", "priority depth", "iter time"},
		Notes: []string{
			"paper: ring preferred over tree; streams vary 2-24, higher with more GPUs; larger granularity for Transformer-family models",
		},
	}
	cases := []struct {
		m    model.Model
		gpus int
	}{
		{m: model.ResNet50(), gpus: 16},
		{m: model.ResNet50(), gpus: 64},
		{m: model.ResNet50(), gpus: 256},
		{m: model.VGG16(), gpus: 32},
		{m: model.TransformerBase(), gpus: 64},
		{m: model.BERTLarge(), gpus: 64},
	}
	for _, c := range cases {
		cfg, p, err := s.tunedConfig(c.m, c.gpus)
		if err != nil {
			return t, err
		}
		res, err := simulate(cfg)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			c.m.Name, fmt.Sprintf("%d", c.gpus),
			fmt.Sprintf("%d", p.Streams), stats.FormatBytes(p.GranularityBytes), p.Algorithm,
			stats.FormatBytes(p.SegmentBytes), fmt.Sprintf("%d", p.PriorityDepth),
			fmtDur(res.IterTime),
		})
	}
	return t, nil
}
