package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// curve is one model series of a sweep: its label and the parameter it sets
// on the base configuration of every rate point.
type curve struct {
	label string
	set   func(*core.Config)
}

// panel is one figure of a sweep: its metadata and the measure it plots.
type panel struct {
	id, title, ylabel string
	get               func(core.Measures) float64
}

// pdchCurves returns one curve per number of reserved PDCHs.
func pdchCurves(pdchs ...int) []curve {
	curves := make([]curve, len(pdchs))
	for i, n := range pdchs {
		curves[i] = curve{fmt.Sprintf("%d reserved PDCH", n), func(c *core.Config) { c.Channels.ReservedPDCH = n }}
	}
	return curves
}

// fractionCurves returns one curve per fraction of GPRS users, labelled by
// format applied to the fraction in percent.
func fractionCurves(format string, fractions ...float64) []curve {
	curves := make([]curve, len(fractions))
	for i, f := range fractions {
		curves[i] = curve{fmt.Sprintf(format, int(f*100)), func(c *core.Config) { c.GPRSFraction = f }}
	}
	return curves
}

// modelFigures sweeps the analytical model over every curve and call arrival
// rate and returns one figure per panel, each with one series per curve.
// Each point is solved once, concurrently under the shared limiter, and fills
// every panel from that one solution; point k is (curve k/len(rates), rate
// k%len(rates)), so the figures and the lowest-index error do not depend on
// the schedule.
func modelFigures(o Options, model traffic.Model, curves []curve, panels ...panel) ([]Figure, error) {
	rates := callRates(o.Fidelity)
	figs := make([]Figure, len(panels))
	for i, p := range panels {
		figs[i] = Figure{ID: p.id, Title: p.title, XLabel: "GSM/GPRS call arrival rate (1/s)", YLabel: p.ylabel}
		for _, c := range curves {
			figs[i].Series = append(figs[i].Series, newSeries(c.label, rates))
		}
	}
	err := runner.ForEach(o.limiter, len(curves)*len(rates), func(k int) error {
		series, point := k/len(rates), k%len(rates)
		cfg := baseConfig(o.Fidelity, model, rates[point])
		curves[series].set(&cfg)
		meas, err := solvePoint(cfg, o)
		if err != nil {
			return err
		}
		for i, p := range panels {
			figs[i].Series[series].Y[point] = p.get(meas)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return figs, nil
}

// Fig5ThresholdCalibration reproduces Fig. 5: the packet loss probability
// versus the call arrival rate for different TCP flow-control thresholds eta,
// compared against the detailed simulator (traffic model 3, 1 reserved PDCH).
func Fig5ThresholdCalibration(o Options) (Figure, error) {
	o = o.withDefaults()
	if err := o.validateSim(); o.WithSimulation && err != nil {
		return Figure{}, err
	}
	var curves []curve
	for _, eta := range []float64{0.5, 0.7, 0.9, 1.0} {
		curves = append(curves, curve{fmt.Sprintf("eta = %.1f", eta), func(c *core.Config) { c.FlowControlThreshold = eta }})
	}
	figs, err := modelFigures(o, traffic.Model3, curves,
		panel{"fig05_plp_vs_eta", "Calibrating the threshold eta to represent TCP flow control (traffic model 3)",
			"packet loss probability", func(m core.Measures) float64 { return m.PacketLossProbability }})
	if err != nil {
		return Figure{}, err
	}
	fig := figs[0]
	if o.WithSimulation {
		rates := callRates(o.Fidelity)
		sums, err := simulateSweep(o, fig.ID, traffic.Model3, rates, nil)
		if err != nil {
			return Figure{}, err
		}
		fig.Series = append(fig.Series, seriesFromSummaries("simulation (TCP)", rates, sums,
			func(r sim.Results) stats.Interval { return r.PacketLossProbability }))
	}
	return fig, nil
}

// Fig6Validation reproduces Fig. 6: carried data traffic and throughput per
// user versus the call arrival rate for different percentages of GPRS users,
// Markov model against the detailed simulator (traffic model 3, 1 reserved
// PDCH).
func Fig6Validation(o Options) ([]Figure, error) {
	o = o.withDefaults()
	if err := o.validateSim(); o.WithSimulation && err != nil {
		return nil, err
	}
	fractions := []float64{0.02, 0.05, 0.10}
	figs, err := modelFigures(o, traffic.Model3, fractionCurves("model, %d%% GPRS users", fractions...),
		panel{"fig06_cdt_validation", "Validation of the Markov model: carried data traffic (traffic model 3, 1 PDCH)",
			"carried data traffic (PDCHs)", func(m core.Measures) float64 { return m.CarriedDataTraffic }},
		panel{"fig06_atu_validation", "Validation of the Markov model: throughput per user (traffic model 3, 1 PDCH)",
			"throughput per user (bit/s)", func(m core.Measures) float64 { return m.ThroughputPerUserBits }})
	if err != nil || !o.WithSimulation {
		return figs, err
	}

	// The fractions fan out concurrently on top of the per-point and
	// per-replication parallelism inside simulateSweep; the shared limiter
	// keeps the number of active simulator runs bounded. Series are appended
	// in fraction order afterwards, so the figure layout does not depend on
	// completion order.
	rates := callRates(o.Fidelity)
	cdt, atu := &figs[0], &figs[1]
	perFraction := make([][]runner.Summary, len(fractions))
	err = runner.ForEach(nil, len(fractions), func(fi int) error {
		tag := fmt.Sprintf("%s (%d%% GPRS)", cdt.ID, int(fractions[fi]*100))
		sums, err := simulateSweep(o, tag, traffic.Model3, rates, func(cfg *sim.Config) {
			cfg.GPRSFraction = fractions[fi]
		})
		perFraction[fi] = sums
		return err
	})
	if err != nil {
		return nil, err
	}
	for fi, f := range fractions {
		label := fmt.Sprintf("simulation, %d%% GPRS users", int(f*100))
		cdt.Series = append(cdt.Series, seriesFromSummaries(label, rates, perFraction[fi],
			func(r sim.Results) stats.Interval { return r.CarriedDataTraffic }))
		atu.Series = append(atu.Series, seriesFromSummaries(label, rates, perFraction[fi],
			func(r sim.Results) stats.Interval { return r.ThroughputPerUserBits }))
	}
	return figs, nil
}

// figPerPDCH builds the template of Figs. 7-9: one figure per traffic model
// 1 and 2, plotting one measure for 1, 2 and 4 reserved PDCHs. idFmt and
// titleFmt are formatted with the traffic model.
func figPerPDCH(o Options, idFmt, titleFmt, ylabel string, get func(core.Measures) float64) ([]Figure, error) {
	o = o.withDefaults()
	var figs []Figure
	for _, model := range []traffic.Model{traffic.Model1, traffic.Model2} {
		fig, err := modelFigures(o, model, pdchCurves(1, 2, 4),
			panel{fmt.Sprintf(idFmt, model), fmt.Sprintf(titleFmt, model), ylabel, get})
		if err != nil {
			return nil, err
		}
		figs = append(figs, fig...)
	}
	return figs, nil
}

// Fig7CDT reproduces Fig. 7: carried data traffic for traffic models 1 and 2
// with 1, 2, and 4 reserved PDCHs.
func Fig7CDT(o Options) ([]Figure, error) {
	return figPerPDCH(o, "fig07_cdt_tm%d", "Carried data traffic, %v", "carried data traffic (PDCHs)",
		func(m core.Measures) float64 { return m.CarriedDataTraffic })
}

// Fig8PLP reproduces Fig. 8: packet loss probability for traffic models 1 and
// 2 with 1, 2, and 4 reserved PDCHs.
func Fig8PLP(o Options) ([]Figure, error) {
	return figPerPDCH(o, "fig08_plp_tm%d", "Packet loss probability, %v", "packet loss probability",
		func(m core.Measures) float64 { return m.PacketLossProbability })
}

// Fig9QD reproduces Fig. 9: queueing delay for traffic models 1 and 2 with 1,
// 2, and 4 reserved PDCHs.
func Fig9QD(o Options) ([]Figure, error) {
	return figPerPDCH(o, "fig09_qd_tm%d", "Queueing delay, %v", "queueing delay (s)",
		func(m core.Measures) float64 { return m.QueueingDelay })
}

// Fig10SessionLimit reproduces Fig. 10: carried data traffic and GPRS session
// blocking probability for traffic model 1 with session limits M = 50, 100,
// 150 (scaled to 10/20/30 in quick mode).
func Fig10SessionLimit(o Options) ([]Figure, error) {
	o = o.withDefaults()
	limits := []int{50, 100, 150}
	if o.Fidelity != Full {
		limits = []int{10, 20, 30}
	}
	var curves []curve
	for _, limit := range limits {
		curves = append(curves, curve{fmt.Sprintf("M = %d", limit), func(c *core.Config) {
			c.Channels.ReservedPDCH = 2
			c.MaxSessions = limit
		}})
	}
	return modelFigures(o, traffic.Model1, curves,
		panel{"fig10_cdt_session_limit", "Carried data traffic for different session limits M (traffic model 1, 2 PDCHs)",
			"carried data traffic (PDCHs)", func(m core.Measures) float64 { return m.CarriedDataTraffic }},
		panel{"fig10_blocking_session_limit", "GPRS session blocking probability for different session limits M (traffic model 1)",
			"GPRS session blocking probability", func(m core.Measures) float64 { return m.GPRSBlockingProbability }})
}

// FigCDTandATU reproduces the template of Figs. 11-13: carried data traffic
// and throughput per user versus the call arrival rate for 0, 1, 2, and 4
// reserved PDCHs at the given fraction of GPRS users (traffic model 3).
func FigCDTandATU(gprsFraction float64, o Options) ([]Figure, error) {
	o = o.withDefaults()
	pct := int(gprsFraction * 100)
	curves := pdchCurves(0, 1, 2, 4)
	for i, c := range curves {
		curves[i].set = func(cfg *core.Config) {
			cfg.GPRSFraction = gprsFraction
			c.set(cfg)
		}
	}
	return modelFigures(o, traffic.Model3, curves,
		panel{fmt.Sprintf("fig_cdt_%02dpct", pct),
			fmt.Sprintf("Carried data traffic for %d%% GPRS users (traffic model 3)", pct),
			"carried data traffic (PDCHs)", func(m core.Measures) float64 { return m.CarriedDataTraffic }},
		panel{fmt.Sprintf("fig_atu_%02dpct", pct),
			fmt.Sprintf("Throughput per user for %d%% GPRS users (traffic model 3)", pct),
			"throughput per user (bit/s)", func(m core.Measures) float64 { return m.ThroughputPerUserBits }})
}

// Fig11TwoPercent reproduces Fig. 11 (2% GPRS users).
func Fig11TwoPercent(o Options) ([]Figure, error) { return FigCDTandATU(0.02, o) }

// Fig12FivePercent reproduces Fig. 12 (5% GPRS users).
func Fig12FivePercent(o Options) ([]Figure, error) { return FigCDTandATU(0.05, o) }

// Fig13TenPercent reproduces Fig. 13 (10% GPRS users).
func Fig13TenPercent(o Options) ([]Figure, error) { return FigCDTandATU(0.10, o) }

// Fig14VoiceImpact reproduces Fig. 14: carried voice traffic and GSM voice
// blocking probability for different numbers of reserved PDCHs (95% GSM
// users, traffic model 3).
func Fig14VoiceImpact(o Options) ([]Figure, error) {
	o = o.withDefaults()
	return modelFigures(o, traffic.Model3, pdchCurves(0, 1, 2, 4),
		panel{"fig14_cvt", "Influence of GPRS on the GSM voice service: carried voice traffic (95% GSM calls)",
			"carried voice traffic (channels)", func(m core.Measures) float64 { return m.CarriedVoiceTraffic }},
		panel{"fig14_voice_blocking", "Influence of GPRS on the GSM voice service: voice blocking probability (95% GSM calls)",
			"GSM voice blocking probability", func(m core.Measures) float64 { return m.GSMBlockingProbability }})
}

// Fig15GPRSPopulation reproduces Fig. 15: average number of GPRS users in the
// cell and GPRS session blocking probability for 2%, 5%, and 10% GPRS users
// (traffic model 3).
func Fig15GPRSPopulation(o Options) ([]Figure, error) {
	o = o.withDefaults()
	return modelFigures(o, traffic.Model3, fractionCurves("%d%% GPRS users", 0.02, 0.05, 0.10),
		panel{"fig15_avg_gprs_users", "Average number of GPRS users in the cell (traffic model 3)",
			"average number of active GPRS sessions", func(m core.Measures) float64 { return m.AverageSessions }},
		panel{"fig15_gprs_blocking", "GPRS session blocking probability (traffic model 3)",
			"GPRS session blocking probability", func(m core.Measures) float64 { return m.GPRSBlockingProbability }})
}

// groups lists the figure groups of the evaluation section in the paper's
// order, under their -figure names.
var groups = []struct {
	name string
	run  func(Options) ([]Figure, error)
}{
	{"fig5", func(o Options) ([]Figure, error) {
		fig, err := Fig5ThresholdCalibration(o)
		if err != nil {
			return nil, err
		}
		return []Figure{fig}, nil
	}},
	{"fig6", Fig6Validation},
	{"fig7", Fig7CDT},
	{"fig8", Fig8PLP},
	{"fig9", Fig9QD},
	{"fig10", Fig10SessionLimit},
	{"fig11", Fig11TwoPercent},
	{"fig12", Fig12FivePercent},
	{"fig13", Fig13TenPercent},
	{"fig14", Fig14VoiceImpact},
	{"fig15", Fig15GPRSPopulation},
}

// Figures regenerates the figures of one lower-case name: "all" (AllFigures),
// "hotspot" (HotspotFigures) or one figure group, "fig5" ... "fig15".
func Figures(name string, o Options) ([]Figure, error) {
	switch name {
	case "all":
		return AllFigures(o)
	case "hotspot":
		return HotspotFigures(o)
	}
	for _, g := range groups {
		if g.name == name {
			return g.run(o)
		}
	}
	return nil, fmt.Errorf("unknown figure %q (use all, tables, fig5 ... fig15, hotspot)", name)
}

// AllFigures regenerates every figure of the evaluation section. The figure
// groups run concurrently — on top of the point- and replication-level
// parallelism inside each — while the shared limiter keeps the number of
// active model solutions and simulator runs at the configured worker bound.
// The returned figures are collected in the paper's order and the reported
// error is that of the earliest failing group, so neither depends on the
// schedule.
func AllFigures(o Options) ([]Figure, error) {
	o = o.withDefaults()
	// Check before the other figures' model solves start alongside figs. 5-6.
	if err := o.validateSim(); o.WithSimulation && err != nil {
		return nil, err
	}

	perGroup := make([][]Figure, len(groups))
	var mu sync.Mutex
	done := 0
	err := runner.ForEach(nil, len(groups), func(i int) error {
		got, err := groups[i].run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", groups[i].name, err)
		}
		perGroup[i] = got
		mu.Lock()
		done++
		o.record(ProgressEvent{Kind: "group", Figure: groups[i].name, Done: done, Total: len(groups)})
		mu.Unlock()
		return nil
	})

	var figs []Figure
	for _, got := range perGroup {
		figs = append(figs, got...)
	}
	return figs, err
}
