package expt

import (
	"fmt"

	"dynnoffload/internal/core"
	"dynnoffload/internal/faults"
	"dynnoffload/internal/online"
	"dynnoffload/internal/pilot"
	"dynnoffload/internal/serve"
)

const (
	// onlineSweepRequests is the request count per arm: long enough for
	// several trajectory windows and dozens of retrain intervals.
	onlineSweepRequests = 720
	// onlineSweepWindow sizes the mispredict-trajectory windows
	// (onlineSweepRequests / onlineSweepWindow points per arm).
	onlineSweepWindow = 90
	// onlineSweepInterval retrains every N completions in the online arm.
	onlineSweepInterval = 8
	// onlineSweepUtil sets the offered rate as a fraction of the calibrated
	// on-demand iteration rate — comfortably sustainable, so every request
	// completes and both arms observe the identical outcome stream.
	onlineSweepUtil = 0.5
	// onlineSweepLR matches the offline trainer's scale (Config.LR default is
	// ~0.0014 at bench width): the package default of 0.01 is tuned for wider
	// production pilots and destabilizes the narrow bench pilot. Gentler steps
	// with more epochs converge on every zoo model; hotter settings oscillate
	// on the tightest label spaces (var-BERT).
	onlineSweepLR = 0.001
	// onlineSweepEpochs passes over each retrain minibatch.
	onlineSweepEpochs = 6
	// onlineSweepMinibatch is the retrain minibatch size; larger than the
	// package default to cut gradient noise on the hardest path spaces.
	onlineSweepMinibatch = 64
)

// onlineSweepRow is one model's frozen-vs-online outcome, kept structured so
// the package tests can pin the trajectory ordering without parsing table
// text.
type onlineSweepRow struct {
	name string
	// static rows have a single path: nothing to predict, no arms played.
	static    bool
	migrating bool
	// First/last windowed mispredict rates per arm.
	frozenFirst, frozenLast float64
	onlineFirst, onlineLast float64
	retrains                int64
	retrainNS               int64
}

// OnlineSweep replays the same serving workload twice per migrating zoo model
// — once with the pilot frozen (ObserveOnly: the replay memory fills and the
// trajectory is tracked, but no retrain ever fires) and once with online
// learning enabled — and reports the windowed mispredict-rate trajectory of
// each arm. Learning from served traffic should bend the online arm's
// trajectory below the frozen arm's.
//
// Both arms run with sample memoization and the mis-prediction cache off:
// those layers mask repeat mispredicts behind cached resolutions, so leaving
// them on would show a declining "mispredict" rate even for a frozen pilot.
// The sweep isolates pilot quality, which is the quantity under test.
func OnlineSweep(wb *Workbench) (*Table, error) {
	rows, err := wb.onlineSweepRows()
	if err != nil {
		return nil, err
	}
	return onlineSweepTable(rows), nil
}

// onlineSweepTable renders the sweep's rows.
func onlineSweepTable(rows []onlineSweepRow) *Table {
	tab := &Table{
		Title: "OnlineSweep: windowed mispredict rate, frozen pilot vs online learning",
		Header: []string{"model", "migrating", "frozen-first", "frozen-last",
			"online-first", "online-last", "retrains", "retrain-ms", "improvement"},
		Notes: []string{
			fmt.Sprintf("%d requests per arm at %.2fx the calibrated on-demand rate; window = %d requests; retrain every %d completions",
				onlineSweepRequests, onlineSweepUtil, onlineSweepWindow, onlineSweepInterval),
			"both arms disable sample memoization and the mis-prediction cache, so rates reflect raw pilot predictions",
			"improvement = frozen-last - online-last (positive: learning ends below the frozen control)",
			"static rows have a single path (nothing to predict) and fits-GPU rows never migrate; both are skipped",
		},
	}
	for _, row := range rows {
		switch {
		case row.static:
			tab.Rows = append(tab.Rows, []string{row.name, "static (1 path)", "-", "-", "-", "-", "-", "-", "-"})
		case !row.migrating:
			tab.Rows = append(tab.Rows, []string{row.name, "no (fits GPU)", "-", "-", "-", "-", "-", "-", "-"})
		default:
			tab.Rows = append(tab.Rows, []string{
				row.name, "yes",
				rate(row.frozenFirst), rate(row.frozenLast),
				rate(row.onlineFirst), rate(row.onlineLast),
				fmt.Sprint(row.retrains), ms(row.retrainNS),
				fmt.Sprintf("%+.3f", row.frozenLast-row.onlineLast),
			})
		}
	}
	return tab
}

// onlineSweepRows plays the sweep over every zoo model, in workbench order.
func (wb *Workbench) onlineSweepRows() ([]onlineSweepRow, error) {
	var rows []onlineSweepRow
	for _, mb := range wb.Models {
		if !mb.Entry.Dynamic {
			// A static model has one path: the pilot is trivially exact and a
			// mispredict trajectory carries no information.
			rows = append(rows, onlineSweepRow{name: mb.Entry.Name, static: true})
			continue
		}
		row, err := wb.onlineSweepModel(mb)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// onlineSweepModel calibrates one model and plays both arms.
func (wb *Workbench) onlineSweepModel(mb *ModelBench) (onlineSweepRow, error) {
	row := onlineSweepRow{name: mb.Entry.Name}
	pool := mb.Test
	if len(pool) > serveSweepRequests {
		pool = pool[:serveSweepRequests]
	}
	mean, _, xfer, err := wb.serveCalibrate(mb, pool)
	if err != nil {
		return row, err
	}
	row.migrating = xfer > 0
	if !row.migrating {
		return row, nil
	}
	rate := onlineSweepUtil * 1e9 / float64(mean)
	frozen, err := wb.onlinePoint(mb, pool, rate, true)
	if err != nil {
		return row, err
	}
	learned, err := wb.onlinePoint(mb, pool, rate, false)
	if err != nil {
		return row, err
	}
	fo, lo := frozen.Total.Online, learned.Total.Online
	row.frozenFirst, row.frozenLast = fo.FirstWindowRate(), fo.LastWindowRate()
	row.onlineFirst, row.onlineLast = lo.FirstWindowRate(), lo.LastWindowRate()
	row.retrains, row.retrainNS = lo.Retrains, lo.RetrainNS
	return row, nil
}

// onlinePoint plays one arm: a single tenant offering onlineSweepRequests at
// the given rate against a fresh non-memoizing engine. frozen selects the
// ObserveOnly control arm; both arms share every other knob, so the only
// difference between their outcome streams is whether retrains fire.
func (wb *Workbench) onlinePoint(mb *ModelBench, pool []*pilot.Example, ratePerSec float64, frozen bool) (*serve.Report, error) {
	cfg := serve.Config{
		Tenants: []serve.TenantConfig{{
			Name: "t", Requests: onlineSweepRequests, RatePerSec: ratePerSec,
			Seed: wb.Opts.Seed + 303,
		}},
		Workers: wb.Opts.Workers,
		Online: online.Config{
			Enabled:          true,
			ObserveOnly:      frozen,
			TrainingInterval: onlineSweepInterval,
			WindowSize:       onlineSweepWindow,
			MinibatchSize:    onlineSweepMinibatch,
			LR:               onlineSweepLR,
			Epochs:           onlineSweepEpochs,
			Seed:             wb.Opts.Seed,
		},
	}
	return serve.Run(&serve.Backend{Engine: wb.onlineEngine(mb), Pool: pool}, cfg)
}

// onlineEngine builds a fresh engine per arm with the caching layers that
// mask mispredicts disabled. Fresh per arm — the fault stream, when enabled,
// is stateful and both arms must replay it identically.
func (wb *Workbench) onlineEngine(mb *ModelBench) *core.Engine {
	cfg := core.DefaultConfig(mb.Platform)
	cfg.Plans = wb.Plans
	cfg.MemoizeSamples = false
	cfg.HandleMispredictions = false
	if wb.Opts.Faults.Rate > 0 {
		cfg.Faults = faults.New(wb.Opts.Faults)
	}
	return core.NewEngine(cfg, wb.Pilot)
}

// rate renders a windowed mispredict rate.
func rate(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}
