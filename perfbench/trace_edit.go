package main

import (
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"powerplay/internal/core/sheet"
	"powerplay/internal/infopad"
	"powerplay/internal/store"
	"powerplay/internal/web"
)

// traceWarm is the untimed warm-up of each traced pass.
const traceWarm = 500 * time.Millisecond

// traceEdit hosts the edit site in-process over the prepared data
// directory, wraps its handler, and replays the traced Plays through
// the sheet and store layers directly.
func traceEdit(cfg config, rep *report, d time.Duration) error {
	dir := filepath.Join(cfg.work, "trace-edit")
	prep := filepath.Join(dir, "prepared")
	users, err := prepareEdit(prep, cfg.seed)
	if err != nil {
		return err
	}

	// store.recover_ms: Store.Recover over copies of the directory the
	// site boots from.
	var recovers []float64
	for i := 0; i < 3; i++ {
		cp := filepath.Join(dir, "recover")
		os.RemoveAll(cp)
		if err := copyDir(prep, cp); err != nil {
			return err
		}
		reg, err := editRegistry()
		if err != nil {
			return err
		}
		start := time.Now()
		st, err := store.Open(cp, store.Options{Policy: store.SyncInterval})
		if err == nil {
			_, err = st.Recover(reg)
		}
		recovers = append(recovers, msSince(start))
		if st != nil {
			st.Close()
		}
		if err != nil {
			return err
		}
	}
	rep.set("store.recover_ms", "ms", median(recovers))

	siteDir := filepath.Join(dir, "site")
	if err := copyDir(prep, siteDir); err != nil {
		return err
	}
	reg, err := editRegistry()
	if err != nil {
		return err
	}
	srv, err := web.NewServer(web.Config{SiteName: "perfbench", DataDir: siteDir, Durability: "interval"}, reg)
	if err != nil {
		return err
	}
	log := &spanLog{}
	hs := httptest.NewServer(log.wrap("web", srv.Handler()))
	defer func() {
		hs.Close()
		srv.Close()
	}()
	if err := loginAll(hs.URL, users); err != nil {
		return err
	}
	oracle := &editOracle{memo: map[string]string{}}
	var t tally
	editLoop(hs.URL, users, oracle, &t, until(traceWarm))
	untraced := editLoop(hs.URL, users, oracle, &t, until(d/2))

	// Remember where each user starts the traced loop, for the replay.
	starts := make([][]string, len(users))
	for i, u := range users {
		starts[i] = append([]string(nil), u.current...)
	}
	log.on.Store(true)
	echoes.on.Store(true)
	mem := startMem()
	ops := editLoop(hs.URL, users, oracle, &t, until(d/2))
	mem.report(rep, "edit", len(ops))
	echoes.on.Store(false)
	log.on.Store(false)
	rep.add(&t)
	overhead(rep, "edit", msOf(untraced, func(op editOp) float64 { return op.ms }), msOf(ops, func(op editOp) float64 { return op.ms }))

	lay, err := replayEdit(dir, starts, ops)
	if err != nil {
		return err
	}
	web, echo := log.byID("web"), log.byID("echo")
	var playUs, renderUs, netUs, echoUs, clientUs []float64
	var apply, play, appendUs []float64
	for i, op := range ops {
		ws := web[op.id]
		ne, ok := netEcho(op.id, echo)
		if len(ws) != 1 || !ok {
			continue
		}
		w := ws[0].us()
		playUs = append(playUs, w)
		renderUs = append(renderUs, w-(lay.apply[i]+lay.play[i]+lay.append[i]))
		netUs = append(netUs, op.ms*1e3-w)
		echoUs = append(echoUs, ne)
		clientUs = append(clientUs, op.ms*1e3)
		apply, play, appendUs = append(apply, lay.apply[i]), append(play, lay.play[i]), append(appendUs, lay.append[i])
	}
	rep.set("web.play_us", "us", median(playUs))
	rep.set("web.render_us", "us", median(renderUs))
	rep.set("net.overhead_us.edit", "us", median(netUs))
	rep.set("net.echo_us.edit", "us", median(echoUs))
	rep.set("sheet.apply_us", "us", median(lay.apply))
	rep.set("sheet.play_us", "us", median(lay.play))
	rep.set("sheet.dirty_slots", "count", mean(lay.dirty))
	rep.set("sheet.full_eval_us", "us", median(lay.full))
	rep.set("store.append_us", "us", median(lay.append))
	rep.set("store.bytes_per_op", "B", lay.bytesPerOp)
	rep.set("store.append_always_us", "us", median(lay.always))
	if err := account(rep, "edit", mean(clientUs), map[string]float64{
		"net (echo)": mean(echoUs), "web.render": mean(renderUs),
		"sheet.apply": mean(apply), "sheet.play": mean(play), "store.append": mean(appendUs),
	}); err != nil {
		return err
	}
	rep.Info["edit_trace_samples"] = len(playUs)
	return nil
}

// editLayers holds per-op layer times (µs), indexed like the ops.
type editLayers struct {
	apply, play, full, append, dirty, always []float64
	bytesPerOp                               float64
}

// alwaysSample bounds the fsync-per-append diagnostic.
const alwaysSample = 50

// replayEdit re-applies the traced Plays, in each user's order, to
// fresh replicas and a fresh journal store, timing ApplyMutation,
// Incremental.Play, Design.Evaluate and Store.Append per op.
func replayEdit(dir string, starts [][]string, ops []editOp) (*editLayers, error) {
	reg, err := editRegistry()
	if err != nil {
		return nil, err
	}
	replicas := make([]*sheet.Design, len(starts))
	for i, cur := range starts {
		if replicas[i], err = infopad.Build(reg); err != nil {
			return nil, err
		}
		for idx, v := range cur {
			if err := replicas[i].ApplyMutation(sheet.Mutation{Op: sheet.MutSetGlobal, Name: editVars[idx].name, Expr: v}); err != nil {
				return nil, err
			}
		}
		if _, _, err := replicas[i].IncrementalEngine().Play(); err != nil {
			return nil, err
		}
	}
	open := func(name string, p store.SyncPolicy) (*store.Store, string, error) {
		sd := filepath.Join(dir, name)
		os.RemoveAll(sd)
		st, err := store.Open(sd, store.Options{Policy: p})
		return st, sd, err
	}
	st, sd, err := open("journal-interval", store.SyncInterval)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	always, _, err := open("journal-always", store.SyncAlways)
	if err != nil {
		return nil, err
	}
	defer always.Close()

	n := len(ops)
	l := &editLayers{apply: make([]float64, n), play: make([]float64, n), full: make([]float64, n),
		append: make([]float64, n), dirty: make([]float64, n)}
	us := func(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }
	before := dirBytes(sd)
	for i, op := range ops {
		d := replicas[op.user]
		user := userName(op.user)
		set := sheet.Mutation{Op: sheet.MutSetGlobal, Name: editVars[op.idx].name, Expr: op.value}
		touch := sheet.Mutation{Op: sheet.MutTouch}
		start := time.Now()
		if err := d.ApplyMutation(set); err != nil {
			return nil, err
		}
		r1 := store.Record{Kind: store.KindMutate, Design: d.Name, Gen: d.Generation(), Mut: &set}
		if err := d.ApplyMutation(touch); err != nil {
			return nil, err
		}
		r2 := store.Record{Kind: store.KindMutate, Design: d.Name, Gen: d.Generation(), Mut: &touch}
		l.apply[i] = us(start)
		start = time.Now()
		_, delta, err := d.IncrementalEngine().Play()
		if err != nil {
			return nil, err
		}
		l.play[i] = us(start)
		l.dirty[i] = float64(delta.DirtySlots)
		start = time.Now()
		if _, err := d.Evaluate(); err != nil {
			return nil, err
		}
		l.full[i] = us(start)
		start = time.Now()
		if _, err := st.Append(user, r1, r2); err != nil {
			return nil, err
		}
		l.append[i] = us(start)
		if i < alwaysSample {
			start = time.Now()
			if _, err := always.Append(user, r1, r2); err != nil {
				return nil, err
			}
			l.always = append(l.always, us(start))
		}
	}
	if n > 0 {
		l.bytesPerOp = float64(dirBytes(sd)-before) / float64(n)
	}
	return l, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
