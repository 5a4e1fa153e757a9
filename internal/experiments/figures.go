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

// Fig5ThresholdCalibration reproduces Fig. 5: the packet loss probability
// versus the call arrival rate for different TCP flow-control thresholds eta,
// compared against the detailed simulator (traffic model 3, 1 reserved PDCH).
func Fig5ThresholdCalibration(o Options) (Figure, error) {
	o = o.withDefaults()
	if err := o.validateSim(); o.WithSimulation && err != nil {
		return Figure{}, err
	}
	rates := callRates(o.Fidelity)
	etas := []float64{0.5, 0.7, 0.9, 1.0}

	fig := Figure{
		ID:     "fig05_plp_vs_eta",
		Title:  "Calibrating the threshold eta to represent TCP flow control (traffic model 3)",
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: "packet loss probability",
	}
	var jobs []sweepJob
	for si, eta := range etas {
		fig.Series = append(fig.Series, newSeries(fmt.Sprintf("eta = %.1f", eta), rates))
		for pi, rate := range rates {
			cfg := baseConfig(o.Fidelity, traffic.Model3, rate)
			cfg.FlowControlThreshold = eta
			jobs = append(jobs, sweepJob{cfg: cfg, series: si, point: pi})
		}
	}
	err := sweep(jobs, o, func(m core.Measures) float64 { return m.PacketLossProbability }, fig.Series)
	if err != nil {
		return fig, err
	}
	if o.WithSimulation {
		sums, err := simulateSweep(o, fig.ID, traffic.Model3, rates, nil)
		if err != nil {
			return fig, err
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
	rates := callRates(o.Fidelity)
	fractions := []float64{0.02, 0.05, 0.10}

	cdt := Figure{
		ID:     "fig06_cdt_validation",
		Title:  "Validation of the Markov model: carried data traffic (traffic model 3, 1 PDCH)",
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: "carried data traffic (PDCHs)",
	}
	atu := Figure{
		ID:     "fig06_atu_validation",
		Title:  "Validation of the Markov model: throughput per user (traffic model 3, 1 PDCH)",
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: "throughput per user (bit/s)",
	}

	var jobs []sweepJob
	for si, f := range fractions {
		label := fmt.Sprintf("model, %d%% GPRS users", int(f*100))
		cdt.Series = append(cdt.Series, newSeries(label, rates))
		atu.Series = append(atu.Series, newSeries(label, rates))
		for pi, rate := range rates {
			cfg := baseConfig(o.Fidelity, traffic.Model3, rate)
			cfg.GPRSFraction = f
			jobs = append(jobs, sweepJob{cfg: cfg, series: si, point: pi})
		}
	}
	if err := sweep(jobs, o, func(m core.Measures) float64 { return m.CarriedDataTraffic }, cdt.Series); err != nil {
		return nil, err
	}
	if err := sweep(jobs, o, func(m core.Measures) float64 { return m.ThroughputPerUserBits }, atu.Series); err != nil {
		return nil, err
	}

	if o.WithSimulation {
		// The fractions fan out concurrently on top of the per-point and
		// per-replication parallelism inside simulateSweep; the shared limiter
		// keeps the number of active simulator runs bounded. Series are
		// appended in fraction order afterwards, so the figure layout does not
		// depend on completion order.
		perFraction := make([][]runner.Summary, len(fractions))
		err := runner.ForEach(nil, len(fractions), func(fi int) error {
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
	}
	return []Figure{cdt, atu}, nil
}

// figPerPDCH sweeps a measure over the reserved-PDCH grid for one traffic
// model (the template of Figs. 7-9).
func figPerPDCH(o Options, id, title, ylabel string, model traffic.Model, pdchs []int,
	extract func(core.Measures) float64) (Figure, error) {
	rates := callRates(o.Fidelity)
	fig := Figure{
		ID:     id,
		Title:  title,
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: ylabel,
	}
	var jobs []sweepJob
	for si, pdch := range pdchs {
		fig.Series = append(fig.Series, newSeries(fmt.Sprintf("%d reserved PDCH", pdch), rates))
		for pi, rate := range rates {
			cfg := baseConfig(o.Fidelity, model, rate)
			cfg.Channels.ReservedPDCH = pdch
			jobs = append(jobs, sweepJob{cfg: cfg, series: si, point: pi})
		}
	}
	err := sweep(jobs, o, extract, fig.Series)
	return fig, err
}

// Fig7CDT reproduces Fig. 7: carried data traffic for traffic models 1 and 2
// with 1, 2, and 4 reserved PDCHs.
func Fig7CDT(o Options) ([]Figure, error) {
	o = o.withDefaults()
	var figs []Figure
	for _, model := range []traffic.Model{traffic.Model1, traffic.Model2} {
		fig, err := figPerPDCH(o,
			fmt.Sprintf("fig07_cdt_tm%d", model),
			fmt.Sprintf("Carried data traffic, %v", model),
			"carried data traffic (PDCHs)",
			model, []int{1, 2, 4},
			func(m core.Measures) float64 { return m.CarriedDataTraffic })
		if err != nil {
			return figs, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// Fig8PLP reproduces Fig. 8: packet loss probability for traffic models 1 and
// 2 with 1, 2, and 4 reserved PDCHs.
func Fig8PLP(o Options) ([]Figure, error) {
	o = o.withDefaults()
	var figs []Figure
	for _, model := range []traffic.Model{traffic.Model1, traffic.Model2} {
		fig, err := figPerPDCH(o,
			fmt.Sprintf("fig08_plp_tm%d", model),
			fmt.Sprintf("Packet loss probability, %v", model),
			"packet loss probability",
			model, []int{1, 2, 4},
			func(m core.Measures) float64 { return m.PacketLossProbability })
		if err != nil {
			return figs, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// Fig9QD reproduces Fig. 9: queueing delay for traffic models 1 and 2 with 1,
// 2, and 4 reserved PDCHs.
func Fig9QD(o Options) ([]Figure, error) {
	o = o.withDefaults()
	var figs []Figure
	for _, model := range []traffic.Model{traffic.Model1, traffic.Model2} {
		fig, err := figPerPDCH(o,
			fmt.Sprintf("fig09_qd_tm%d", model),
			fmt.Sprintf("Queueing delay, %v", model),
			"queueing delay (s)",
			model, []int{1, 2, 4},
			func(m core.Measures) float64 { return m.QueueingDelay })
		if err != nil {
			return figs, err
		}
		figs = append(figs, fig)
	}
	return figs, nil
}

// Fig10SessionLimit reproduces Fig. 10: carried data traffic and GPRS session
// blocking probability for traffic model 1 with session limits M = 50, 100,
// 150 (scaled to 10/20/30 in quick mode).
func Fig10SessionLimit(o Options) ([]Figure, error) {
	o = o.withDefaults()
	rates := callRates(o.Fidelity)
	limits := []int{50, 100, 150}
	if o.Fidelity != Full {
		limits = []int{10, 20, 30}
	}

	cdt := Figure{
		ID:     "fig10_cdt_session_limit",
		Title:  "Carried data traffic for different session limits M (traffic model 1, 2 PDCHs)",
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: "carried data traffic (PDCHs)",
	}
	blocking := Figure{
		ID:     "fig10_blocking_session_limit",
		Title:  "GPRS session blocking probability for different session limits M (traffic model 1)",
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: "GPRS session blocking probability",
	}

	var jobs []sweepJob
	for si, limit := range limits {
		label := fmt.Sprintf("M = %d", limit)
		cdt.Series = append(cdt.Series, newSeries(label, rates))
		blocking.Series = append(blocking.Series, newSeries(label, rates))
		for pi, rate := range rates {
			cfg := baseConfig(o.Fidelity, traffic.Model1, rate)
			cfg.Channels.ReservedPDCH = 2
			cfg.MaxSessions = limit
			jobs = append(jobs, sweepJob{cfg: cfg, series: si, point: pi})
		}
	}
	if err := sweep(jobs, o, func(m core.Measures) float64 { return m.CarriedDataTraffic }, cdt.Series); err != nil {
		return nil, err
	}
	if err := sweep(jobs, o, func(m core.Measures) float64 { return m.GPRSBlockingProbability }, blocking.Series); err != nil {
		return nil, err
	}
	return []Figure{cdt, blocking}, nil
}

// FigCDTandATU reproduces the template of Figs. 11-13: carried data traffic
// and throughput per user versus the call arrival rate for 0, 1, 2, and 4
// reserved PDCHs at the given fraction of GPRS users (traffic model 3).
func FigCDTandATU(gprsFraction float64, o Options) ([]Figure, error) {
	o = o.withDefaults()
	rates := callRates(o.Fidelity)
	pdchs := []int{0, 1, 2, 4}
	pct := int(gprsFraction * 100)

	cdt := Figure{
		ID:     fmt.Sprintf("fig_cdt_%02dpct", pct),
		Title:  fmt.Sprintf("Carried data traffic for %d%% GPRS users (traffic model 3)", pct),
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: "carried data traffic (PDCHs)",
	}
	atu := Figure{
		ID:     fmt.Sprintf("fig_atu_%02dpct", pct),
		Title:  fmt.Sprintf("Throughput per user for %d%% GPRS users (traffic model 3)", pct),
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: "throughput per user (bit/s)",
	}

	var jobs []sweepJob
	for si, pdch := range pdchs {
		label := fmt.Sprintf("%d reserved PDCH", pdch)
		cdt.Series = append(cdt.Series, newSeries(label, rates))
		atu.Series = append(atu.Series, newSeries(label, rates))
		for pi, rate := range rates {
			cfg := baseConfig(o.Fidelity, traffic.Model3, rate)
			cfg.GPRSFraction = gprsFraction
			cfg.Channels.ReservedPDCH = pdch
			jobs = append(jobs, sweepJob{cfg: cfg, series: si, point: pi})
		}
	}
	if err := sweep(jobs, o, func(m core.Measures) float64 { return m.CarriedDataTraffic }, cdt.Series); err != nil {
		return nil, err
	}
	if err := sweep(jobs, o, func(m core.Measures) float64 { return m.ThroughputPerUserBits }, atu.Series); err != nil {
		return nil, err
	}
	return []Figure{cdt, atu}, nil
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
	rates := callRates(o.Fidelity)
	pdchs := []int{0, 1, 2, 4}

	cvt := Figure{
		ID:     "fig14_cvt",
		Title:  "Influence of GPRS on the GSM voice service: carried voice traffic (95% GSM calls)",
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: "carried voice traffic (channels)",
	}
	blocking := Figure{
		ID:     "fig14_voice_blocking",
		Title:  "Influence of GPRS on the GSM voice service: voice blocking probability (95% GSM calls)",
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: "GSM voice blocking probability",
	}

	var jobs []sweepJob
	for si, pdch := range pdchs {
		label := fmt.Sprintf("%d reserved PDCH", pdch)
		cvt.Series = append(cvt.Series, newSeries(label, rates))
		blocking.Series = append(blocking.Series, newSeries(label, rates))
		for pi, rate := range rates {
			cfg := baseConfig(o.Fidelity, traffic.Model3, rate)
			cfg.Channels.ReservedPDCH = pdch
			jobs = append(jobs, sweepJob{cfg: cfg, series: si, point: pi})
		}
	}
	if err := sweep(jobs, o, func(m core.Measures) float64 { return m.CarriedVoiceTraffic }, cvt.Series); err != nil {
		return nil, err
	}
	if err := sweep(jobs, o, func(m core.Measures) float64 { return m.GSMBlockingProbability }, blocking.Series); err != nil {
		return nil, err
	}
	return []Figure{cvt, blocking}, nil
}

// Fig15GPRSPopulation reproduces Fig. 15: average number of GPRS users in the
// cell and GPRS session blocking probability for 2%, 5%, and 10% GPRS users
// (traffic model 3).
func Fig15GPRSPopulation(o Options) ([]Figure, error) {
	o = o.withDefaults()
	rates := callRates(o.Fidelity)
	fractions := []float64{0.02, 0.05, 0.10}

	ags := Figure{
		ID:     "fig15_avg_gprs_users",
		Title:  "Average number of GPRS users in the cell (traffic model 3)",
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: "average number of active GPRS sessions",
	}
	blocking := Figure{
		ID:     "fig15_gprs_blocking",
		Title:  "GPRS session blocking probability (traffic model 3)",
		XLabel: "GSM/GPRS call arrival rate (1/s)",
		YLabel: "GPRS session blocking probability",
	}

	var jobs []sweepJob
	for si, f := range fractions {
		label := fmt.Sprintf("%d%% GPRS users", int(f*100))
		ags.Series = append(ags.Series, newSeries(label, rates))
		blocking.Series = append(blocking.Series, newSeries(label, rates))
		for pi, rate := range rates {
			cfg := baseConfig(o.Fidelity, traffic.Model3, rate)
			cfg.GPRSFraction = f
			jobs = append(jobs, sweepJob{cfg: cfg, series: si, point: pi})
		}
	}
	if err := sweep(jobs, o, func(m core.Measures) float64 { return m.AverageSessions }, ags.Series); err != nil {
		return nil, err
	}
	if err := sweep(jobs, o, func(m core.Measures) float64 { return m.GPRSBlockingProbability }, blocking.Series); err != nil {
		return nil, err
	}
	return []Figure{ags, blocking}, nil
}

// AllFigures regenerates every figure of the evaluation section. The figure
// generators run concurrently — on top of the point- and replication-level
// parallelism inside each — while the shared limiter keeps the number of
// active model solutions and simulator runs at the configured worker bound.
// The returned figures are collected in the paper's order and the reported
// error is that of the earliest failing figure, so neither depends on the
// schedule.
func AllFigures(o Options) ([]Figure, error) {
	o = o.withDefaults()
	// Check before the other figures' model solves start alongside figs. 5-6.
	if err := o.validateSim(); o.WithSimulation && err != nil {
		return nil, err
	}

	single := func(f func(Options) (Figure, error)) func(Options) ([]Figure, error) {
		return func(o Options) ([]Figure, error) {
			fig, err := f(o)
			if err != nil {
				return nil, err
			}
			return []Figure{fig}, nil
		}
	}
	steps := []struct {
		name string
		fn   func(Options) ([]Figure, error)
	}{
		{"fig 5", single(Fig5ThresholdCalibration)},
		{"fig 6", Fig6Validation},
		{"fig 7", Fig7CDT},
		{"fig 8", Fig8PLP},
		{"fig 9", Fig9QD},
		{"fig 10", Fig10SessionLimit},
		{"fig 11", Fig11TwoPercent},
		{"fig 12", Fig12FivePercent},
		{"fig 13", Fig13TenPercent},
		{"fig 14", Fig14VoiceImpact},
		{"fig 15", Fig15GPRSPopulation},
	}

	perStep := make([][]Figure, len(steps))
	var mu sync.Mutex
	done := 0
	err := runner.ForEach(nil, len(steps), func(i int) error {
		got, err := steps[i].fn(o)
		if err != nil {
			return fmt.Errorf("%s: %w", steps[i].name, err)
		}
		perStep[i] = got
		mu.Lock()
		done++
		o.progress("%s done (%d/%d figure groups)", steps[i].name, done, len(steps))
		o.record(ProgressEvent{Kind: "group", Figure: steps[i].name, Done: done, Total: len(steps)})
		mu.Unlock()
		return nil
	})

	var figs []Figure
	for _, got := range perStep {
		figs = append(figs, got...)
	}
	return figs, err
}
