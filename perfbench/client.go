package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"powerplay/internal/core/model"
	"powerplay/internal/library"
)

// client is one generator connection: a keep-alive transport that
// never follows redirects (the app answers form posts with 303s) and
// never asks for gzip, so checks read the page as served.
type client struct {
	hc *http.Client
	// The last request sent, its ID and its answer's size, for echo.
	last    request
	lastID  string
	lastLen int
}

// request is the shape of one request.
type request struct {
	method, u, cookie, ctype string
	body                     []byte
	hdr                      []string // extra header pairs
}

func newClient() *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{
		Transport:     tr,
		Timeout:       60 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reqIDs numbers requests so traced runs can join client and server
// spans on the X-Request-ID the servers echo and forward.
var reqIDs atomic.Int64

// response is what a check needs from one exchange.
type response struct {
	status int
	header http.Header
	body   []byte
	id     string
}

// do sends one request and reads the whole answer.  hdr holds extra
// header pairs.
func (c *client) do(method, u, cookie, ctype string, body []byte, hdr ...string) (response, error) {
	r := request{method: method, u: u, cookie: cookie, ctype: ctype, body: body, hdr: hdr}
	id := fmt.Sprintf("pb-%d", reqIDs.Add(1))
	resp, err := c.send(r, id)
	c.last, c.lastID, c.lastLen = r, id, len(resp.body)
	return resp, err
}

func (c *client) send(r request, id string) (response, error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, r.u, rd)
	if err != nil {
		return response{}, err
	}
	req.Header.Set("X-Request-ID", id)
	if r.cookie != "" {
		req.Header.Set("Cookie", r.cookie)
	}
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	for i := 0; i+1 < len(r.hdr); i += 2 {
		req.Header.Set(r.hdr[i], r.hdr[i+1])
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, header: resp.Header, body: b, id: id}, nil
}

// echo repeats the client's last request with the echo header, so the
// span wrapper in front of the server answers it with as many bytes as
// the last answer had, without calling the program's handler.  It
// returns the echo's client-observed time (µs).
func (c *client) echo() (float64, error) {
	r := c.last
	r.hdr = append(append([]string(nil), r.hdr...), echoHeader, strconv.Itoa(c.lastLen))
	start := time.Now()
	resp, err := c.send(r, c.lastID+"/echo")
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	if err == nil && len(resp.body) != c.lastLen {
		err = fmt.Errorf("echo: %d bytes, want %d", len(resp.body), c.lastLen)
	}
	return us, err
}

const formType = "application/x-www-form-urlencoded"

func (c *client) postForm(u, cookie string, vals url.Values) (response, error) {
	return c.do(http.MethodPost, u, cookie, formType, []byte(vals.Encode()))
}

// login identifies a user and returns the cookie header that carries
// the session and the shard routing key.
func (c *client) login(base, user string) (string, error) {
	resp, err := c.postForm(base+"/login", "", url.Values{"user": {user}})
	if err != nil {
		return "", err
	}
	if resp.status != http.StatusSeeOther {
		return "", fmt.Errorf("login %s: status %d", user, resp.status)
	}
	return cookieHeader(resp.header.Values("Set-Cookie")), nil
}

// cookieHeader turns Set-Cookie values into one Cookie header.
func cookieHeader(setCookies []string) string {
	var parts []string
	for _, sc := range setCookies {
		kv, _, _ := strings.Cut(sc, ";")
		parts = append(parts, kv)
	}
	return strings.Join(parts, "; ")
}

// importDesign installs a design (JSON) under the logged-in user.
func (c *client) importDesign(base, cookie, name string, blob []byte) error {
	resp, err := c.postForm(base+"/designs/import", cookie, url.Values{"design": {string(blob)}, "name": {name}})
	if err != nil {
		return err
	}
	if resp.status/100 != 2 && resp.status != http.StatusSeeOther {
		return fmt.Errorf("import %s: status %d: %.200s", name, resp.status, resp.body)
	}
	return nil
}

// ----- model publishes -----

// pubNames and pubScales are the fixed sets publishes cycle through:
// four model names, seven coefficient values.  The counts are coprime,
// so consecutive publishes of one name always change its value, and
// the site's model set never grows past four.
var (
	pubNames  = []string{"pbmodel0", "pbmodel1", "pbmodel2", "pbmodel3"}
	pubScales = []int{101, 103, 107, 109, 113, 127, 131}
)

// publication is one model version and the power it must evaluate to.
type publication struct {
	eq       *library.Equation
	expected float64
	json     bool   // true: POST /api/v1/models, false: the HTML form
	sentID   string // X-Request-ID of the publish request
}

func newPublication(seq int, seed int64) (*publication, error) {
	k := pubScales[(seq+int(seed%7+7))%len(pubScales)]
	q := &library.Equation{
		Name:  pubNames[seq%len(pubNames)],
		Title: "benchmark cell",
		Class: string(model.Computation),
		Csw:   fmt.Sprintf("%d * 1e-15", k),
	}
	if err := q.Compile(); err != nil {
		return nil, err
	}
	est, err := model.Evaluate(q, nil)
	if err != nil {
		return nil, err
	}
	return &publication{eq: q, expected: float64(est.Power()), json: seq%2 == 1}, nil
}

func (p *publication) path() string {
	if p.json {
		return "json"
	}
	return "form"
}

// send publishes through base: the form as a logged-in user, the JSON
// API anonymously (as a publishing tool would).
func (p *publication) send(c *client, base, cookie string) (response, error) {
	if p.json {
		blob, _ := json.Marshal(p.eq)
		resp, err := c.do(http.MethodPost, base+"/api/v1/models", "", "application/json", blob)
		p.sentID = resp.id
		if err == nil && resp.status != http.StatusCreated {
			err = fmt.Errorf("json publish: status %d: %.200s", resp.status, resp.body)
		}
		return resp, err
	}
	q := p.eq
	resp, err := c.postForm(base+"/models/new", cookie, url.Values{
		"name": {q.Name}, "title": {q.Title}, "class": {q.Class}, "csw": {q.Csw},
	})
	p.sentID = resp.id
	if err == nil && resp.status != http.StatusSeeOther {
		err = fmt.Errorf("form publish: status %d: %.200s", resp.status, resp.body)
	}
	return resp, err
}

// visibleOn asks one serving process to evaluate the model and reports
// whether it answers with this version's power.
func (p *publication) visibleOn(c *client, base string) (bool, error) {
	blob, _ := json.Marshal(map[string]any{"model": p.eq.Name})
	resp, err := c.do(http.MethodPost, base+"/api/v1/eval", "", "application/json", blob)
	if err != nil {
		return false, err
	}
	if resp.status != http.StatusOK {
		return false, nil // not published there (yet)
	}
	var est struct {
		Power float64 `json:"power"`
	}
	if err := json.Unmarshal(resp.body, &est); err != nil {
		return false, err
	}
	return est.Power == p.expected, nil
}

// publishDeadline bounds how long a publish may take to evaluate on
// every serving process before it counts as failed.
const publishDeadline = 100 * time.Millisecond

// probeVisible publishes through front and polls every process in
// backends until all of them evaluate the new version, returning the
// time from sending the publish and how many processes evaluated it
// when the probe ended.  between runs between probe rounds (the fleet
// keeps reading there, so a slow publish does not stall the loop); it
// may be nil.
func probeVisible(c *client, p *publication, front, cookie string, backends []string, between func()) (ms float64, seen int, err error) {
	start := time.Now()
	if _, err := p.send(c, front, cookie); err != nil {
		return 0, 0, err
	}
	pending := append([]string(nil), backends...)
	for {
		var still []string
		for _, b := range pending {
			vis, err := p.visibleOn(c, b)
			if err != nil {
				return 0, 0, err
			}
			if !vis {
				still = append(still, b)
			}
		}
		pending = still
		seen = len(backends) - len(pending)
		if len(pending) == 0 || time.Since(start) > publishDeadline {
			return msSince(start), seen, nil
		}
		if between != nil {
			between()
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// checkPublish folds one probed publish into t and reports whether it
// became visible on all n backends.  A JSON publish that evaluates
// right on exactly one backend is the router's known defect (it
// forwards POST /api/v1/models to one backend and replicates only the
// form path): it is counted in t.unreplicated, not as a failed
// operation, so the defect shows in every run without failing it.  Any
// other shortfall fails the publish.
func checkPublish(t *tally, p *publication, n, seen int, err error) bool {
	switch {
	case err != nil:
		t.fail("publish "+p.path()+": "+err.Error(), true)
	case seen == n:
		return true
	case p.json && seen == 1:
		t.unreplicated.Add(1)
	default:
		t.fail(fmt.Sprintf("publish %s: visible on %d of %d backends within the deadline", p.path(), seen, n), false)
	}
	return false
}

// publishProbe makes n publishes through front, numbered from seq,
// alternating the form and JSON paths, and returns the visibility
// times of those that reached every process in backends, in order, by
// path.  Each publish is checked by checkPublish.
func publishProbe(c *client, front, cookie string, backends []string, seq, n int, seed int64, t *tally, between func()) map[string][]float64 {
	vis := map[string][]float64{}
	for i := seq; i < seq+n; i++ {
		t.attempted.Add(1)
		p, err := newPublication(i, seed)
		if err != nil {
			t.fail("publish: "+err.Error(), true)
			continue
		}
		ms, seen, err := probeVisible(c, p, front, cookie, backends, between)
		if checkPublish(t, p, len(backends), seen, err) {
			vis[p.path()] = append(vis[p.path()], ms)
		}
	}
	return vis
}

// publishInfo summarizes publishes for the info line.
// publish_visible_ms is taken on the form path, the one the fleet
// router replicates synchronously; it is not a gated metric, because
// its run-to-run spread on the reference host exceeds any bound the
// benchmark may set (see README.md).
func publishInfo(vis map[string][]float64) map[string]any {
	info := map[string]any{
		"publish_visible_ms": median(vis["form"]),
		"deadline_ms":        publishDeadline.Milliseconds(),
	}
	for path, v := range vis {
		info[path+"_visible"] = len(v)
		info[path+"_median_ms"] = median(v)
	}
	return info
}
