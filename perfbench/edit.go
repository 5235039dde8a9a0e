package main

// The edit workload: the paper's Play loop on one durable site.  Two
// closed-loop clients act as two users, each owning an InfoPad sheet
// (Figure 5); every operation is a one-binding Play.

import (
	"bytes"
	"fmt"
	"html"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"powerplay/internal/core/model"
	"powerplay/internal/core/sheet"
	"powerplay/internal/infopad"
	"powerplay/internal/library"
	"powerplay/internal/units"
	"powerplay/internal/vqsim"
	"powerplay/internal/web"
)

// editVars are the InfoPad globals a Play rebinds, in rotation, each
// with the fixed set of values it cycles through.  Different globals
// reach dirty cones of different sizes; the fixed sets keep the state
// (and the oracle memo) bounded.
var editVars = []struct {
	name   string
	values []string
}{
	{"vdd1", []string{"1.1", "1.2", "1.3", "1.5", "1.8"}},
	{"vdd2", []string{"2.7", "3", "3.3", "3.6"}},
	{"vdd3", []string{"4.5", "5", "5.5"}},
	{"fclk", []string{"1e7", "1.6e7", "2e7", "2.5e7"}},
}

const (
	editUsers   = 2   // one per generator connection
	editHistory = 300 // seeded Plays per user before the site boots
	editBoots   = 31  // set-ups per run; setup_s is their median
	editDesign  = "InfoPad"
)

// editUser is one user's side of the loop: the session, the current
// binding of every edited global, and the local replica the oracle
// evaluates.
type editUser struct {
	name    string
	cookie  string
	rng     *rand.Rand
	current []string // per editVars entry
	replica *sheet.Design
	n       int // Plays so far (drives the rotation)
}

// editOracle memoizes the replica's TOTAL power per binding tuple, as
// the page prints it.  The replica is a pure function of the tuple, so
// the memo answers exactly what EvaluateAt would.
type editOracle struct {
	mu   sync.Mutex
	memo map[string]string
}

func (o *editOracle) total(u *editUser) (string, error) {
	key := strings.Join(u.current, ",")
	o.mu.Lock()
	defer o.mu.Unlock()
	if v, ok := o.memo[key]; ok {
		return v, nil
	}
	res, err := u.replica.EvaluateAt(nil)
	if err != nil {
		return "", err
	}
	v := units.Sci(float64(res.Power), "W")
	o.memo[key] = v
	return v, nil
}

// next picks the next Play: the next global in rotation, bound to a
// seeded value different from its current one (so every Play edits).
func (u *editUser) next() (idx int, value string) {
	idx = u.n % len(editVars)
	u.n++
	vals := editVars[idx].values
	for {
		v := vals[u.rng.Intn(len(vals))]
		if v != u.current[idx] {
			return idx, v
		}
	}
}

// apply records a Play on the replica.
func (u *editUser) apply(idx int, value string) {
	m := sheet.Mutation{Op: sheet.MutSetGlobal, Name: editVars[idx].name, Expr: value}
	if err := u.replica.ApplyMutation(m); err != nil {
		panic(err) // the value sets are fixed and valid
	}
	u.current[idx] = value
}

// editRegistry builds the registry a site serving InfoPad needs: the
// standard library plus the luminance macro, registered the way the
// binary's -seed flag does.
func editRegistry() (*model.Registry, error) {
	reg := library.Standard()
	_, err := infopad.Build(reg)
	return reg, err
}

// prepareEdit writes the data directory the measured site boots from:
// the paper's seeded designs for "demo" (so -seed is a no-op on boot),
// one InfoPad per benchmark user, and a seeded history of Plays.  The
// server is dropped without Close, so the directory is what a site
// leaves behind after kill -9: snapshots plus a journal suffix to
// replay.  It returns the users with replicas that share the history.
func prepareEdit(dir string, seed int64) ([]*editUser, error) {
	reg := library.Standard()
	srv, err := web.NewServer(web.Config{SiteName: "perfbench", DataDir: dir, Durability: "never"}, reg)
	if err != nil {
		return nil, err
	}
	for _, build := range []func(*model.Registry) (*sheet.Design, error){vqsim.Luminance1, vqsim.Luminance2, infopad.Build} {
		d, err := build(reg)
		if err != nil {
			return nil, err
		}
		if err := srv.InstallDesign("demo", d); err != nil {
			return nil, err
		}
	}
	localReg, err := editRegistry()
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	var users []*editUser
	for i := 0; i < editUsers; i++ {
		u := &editUser{name: fmt.Sprintf("editor%d", i), rng: rand.New(rand.NewSource(seed*1000 + int64(i)))}
		for _, v := range editVars {
			u.current = append(u.current, v.values[0])
		}
		d, err := infopad.Build(reg)
		if err != nil {
			return nil, err
		}
		if err := srv.InstallDesign(u.name, d); err != nil {
			return nil, err
		}
		if u.replica, err = infopad.Build(localReg); err != nil {
			return nil, err
		}
		// Start from the first value of every set.
		for idx := range editVars {
			u.apply(idx, editVars[idx].values[0])
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/login", strings.NewReader(url.Values{"user": {u.name}}.Encode()))
		req.Header.Set("Content-Type", formType)
		h.ServeHTTP(rec, req)
		u.cookie = cookieHeader(rec.Header().Values("Set-Cookie"))
		play := func(idx int, value string) error {
			vals := url.Values{"glob_" + editVars[idx].name: {value}}
			req := httptest.NewRequest(http.MethodPost, "/design/"+editDesign+"/play", strings.NewReader(vals.Encode()))
			req.Header.Set("Content-Type", formType)
			req.Header.Set("Cookie", u.cookie)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("history play: status %d", rec.Code)
			}
			return nil
		}
		for idx := range editVars {
			if err := play(idx, editVars[idx].values[0]); err != nil {
				return nil, err
			}
		}
		for k := 0; k < editHistory; k++ {
			idx, v := u.next()
			u.apply(idx, v)
			if err := play(idx, v); err != nil {
				return nil, err
			}
		}
		users = append(users, u)
	}
	return users, nil
}

// editOp is one completed, checked Play.
type editOp struct {
	user, idx int
	value     string
	ms        float64
	end       time.Time
	id        string // X-Request-ID, joins traced spans
}

// editPlay sends one Play and checks the page's TOTAL power against
// the oracle.
func editPlay(c *client, base string, u *editUser, o *editOracle, t *tally) (editOp, bool) {
	idx, v := u.next()
	u.apply(idx, v)
	op := editOp{idx: idx, value: v}
	t.attempted.Add(1)
	want, err := o.total(u)
	if err != nil {
		t.fail("oracle: "+err.Error(), true)
		return op, false
	}
	body := url.Values{"glob_" + editVars[idx].name: {v}}.Encode()
	start := time.Now()
	resp, err := c.do(http.MethodPost, base+"/design/"+editDesign+"/play", u.cookie, formType, []byte(body))
	op.ms = msSince(start)
	if err != nil {
		t.fail("play: transport", false)
		return op, false
	}
	op.id = resp.id
	if resp.status != http.StatusOK {
		t.fail(fmt.Sprintf("play: status %d", resp.status), true)
		return op, false
	}
	if got := sheetTotal(resp.body); got != want {
		t.fail("play: TOTAL power differs from the oracle", true)
		return op, false
	}
	return op, true
}

// sheetTotal extracts the TOTAL row's power cell from a sheet page.
func sheetTotal(page []byte) string {
	i := bytes.Index(page, []byte("<td>TOTAL</td>"))
	if i < 0 {
		return ""
	}
	rest := page[i:]
	const cell = `<td class="num">`
	j := bytes.Index(rest, []byte(cell))
	if j < 0 {
		return ""
	}
	rest = rest[j+len(cell):]
	k := bytes.Index(rest, []byte("</td>"))
	if k < 0 {
		return ""
	}
	return html.UnescapeString(string(rest[:k]))
}

// editLoop runs one closed-loop client per user while more reports
// true and returns the completed, checked Plays.
func editLoop(base string, users []*editUser, o *editOracle, t *tally, more func() bool) []editOp {
	var mu sync.Mutex
	var all []editOp
	var wg sync.WaitGroup
	for i, u := range users {
		wg.Add(1)
		go func(i int, u *editUser) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			var ops []editOp
			for more() {
				if op, ok := editPlay(c, base, u, o, t); ok {
					op.user, op.end = i, time.Now()
					ops = append(ops, op)
				}
				echoes.after(c)
			}
			mu.Lock()
			all = append(all, ops...)
			mu.Unlock()
		}(i, u)
	}
	wg.Wait()
	return all
}

// editLatencies reports the loop's latency metrics, with each edited
// global's own median alongside.
func editLatencies(rep *report, ops []editOp, host *stealMeter) error {
	byVar := map[string][]float64{}
	samples := make([]sample, len(ops))
	for i, op := range ops {
		name := editVars[op.idx].name
		byVar[name] = append(byVar[name], op.ms)
		samples[i] = sample{end: op.end, ms: op.ms}
	}
	p50 := map[string]float64{}
	for k, v := range byVar {
		p50[k] = median(v)
	}
	rep.Info["p50_ms_by_var"] = p50
	return reportLoop(rep, samples, host)
}

func loginAll(base string, users []*editUser) error {
	c := newClient()
	defer c.close()
	for _, u := range users {
		ck, err := c.login(base, u.name)
		if err != nil {
			return err
		}
		u.cookie = ck
	}
	return nil
}

// editWarm is the untimed warm-up before the measured loop.
const editWarm = time.Second

func runEdit(cfg config, rep *report) error {
	prep := filepath.Join(cfg.work, "prepared")
	users, err := prepareEdit(prep, cfg.seed)
	if err != nil {
		return fmt.Errorf("preparing the data directory: %w", err)
	}
	oracle := &editOracle{memo: map[string]string{}}
	runDir := filepath.Join(cfg.work, "site")
	var setups []float64
	// boot starts the site over a fresh copy of the prepared directory
	// and logs both users in: one timed set-up.
	boot := func() (*proc, error) {
		os.RemoveAll(runDir)
		if err := copyDir(prep, runDir); err != nil {
			return nil, err
		}
		start := time.Now()
		p, err := startProc(cfg.bin, "-addr", "127.0.0.1:0", "-data", runDir,
			"-durability", "interval", "-seed", "-site", "perfbench")
		if err != nil {
			return nil, err
		}
		if err := loginAll(p.url, users); err != nil {
			p.kill()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		return p, nil
	}
	// Half the set-ups come before the measured loop (the last one
	// serves it) and the rest after it.
	var site *proc
	for len(setups) < editBoots/2 {
		if site != nil {
			site.kill()
		}
		if site, err = boot(); err != nil {
			return err
		}
	}
	defer func() { site.stop() }()
	var t tally
	editLoop(site.url, users, oracle, &t, until(editWarm))
	if t.failed.Load() > 0 {
		return fmt.Errorf("warm-up failed: %v", t.failures())
	}
	var mt tally
	host := startSteal()
	ops := editLoop(site.url, users, oracle, &mt, until(secs(cfg.seconds)))
	host.stop()
	rep.set("rss_mb", "MB", hwmMB(site.pid()))
	site.stop()
	for len(setups) < editBoots {
		p, err := boot()
		if err != nil {
			return err
		}
		p.kill()
	}
	reportSetup(rep, setups)
	if err := editLatencies(rep, ops, host); err != nil {
		return err
	}
	rep.add(&mt)
	rep.Info["params"] = map[string]any{
		"clients": editUsers, "design": editDesign, "history_plays_per_user": editHistory,
		"boots": editBoots, "durability": "interval", "warmup_s": editWarm.Seconds(),
		"vars": "vdd1,vdd2,vdd3,fclk rotating",
	}
	rep.Info["failures"] = mt.failures()
	return nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// until reports true for d from now.
func until(d time.Duration) func() bool {
	deadline := time.Now().Add(d)
	return func() bool { return time.Now().Before(deadline) }
}
