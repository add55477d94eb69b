package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/server"
	"ctrlguard/internal/tenant"
)

// serviceN is the size of every campaign the service clients submit.
const serviceN = 300

// pageLimit is the /records page size the clients read with.
const pageLimit = 100

// service is an in-process ctrlguardd on a loopback listener, with
// every persistence layer enabled and two tenants of weights 1 and 2.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	keys   []string
	client *http.Client
}

var serviceTenants = []tenant.Tenant{
	{Name: "t1", Key: "key-t1", Weight: 1},
	{Name: "t2", Key: "key-t2", Weight: 2},
}

// startService builds the server over dir and returns once /readyz
// answers 200.
func startService(dir string) (*service, error) {
	srv, err := server.New(server.Config{
		DataDir:    filepath.Join(dir, "data"),
		JournalDir: filepath.Join(dir, "journal"),
		CacheDir:   filepath.Join(dir, "cache"),
		Tenants:    serviceTenants,
		Logger:     log.New(io.Discard, "", 0),
	})
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	for _, t := range serviceTenants {
		s.keys = append(s.keys, t.Key)
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("/readyz never answered 200")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener and the campaign workers down and waits for
// the serving goroutine to exit.
func (s *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Close()
	s.client.CloseIdleConnections()
}

func (s *service) do(req *http.Request, key string, v any) error {
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
		}
	}
	return nil
}

func (s *service) get(path, key string, v any) error {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return err
	}
	return s.do(req, key, v)
}

// metrics reads the /metrics counters.
func (s *service) metrics() (map[string]float64, error) {
	var m map[string]any
	if err := s.get("/metrics", "", &m); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// jobView is the part of a campaign view the clients read.
type jobView struct {
	ID       string     `json:"id"`
	CacheHit bool       `json:"cacheHit"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// jobResult is one client job as the client saw it.
type jobResult struct {
	spec     goofi.CampaignSpec
	hit      bool
	latency  time.Duration // submit to terminal event
	submit   time.Duration
	pages    []time.Duration
	records  int
	sum      [32]byte
	final    jobView // traced only: the finished job's timestamps
	terminal time.Time
	end      time.Time // the client is done with the job
}

var terminalStates = map[string]bool{"done": true, "failed": true, "cancelled": true, "interrupted": true}

// runJob submits one campaign, follows its event stream to the
// terminal state, pages through every record and fetches the report.
func (s *service) runJob(key string, spec goofi.CampaignSpec, tr *tracer, op string) (jobResult, error) {
	jr := jobResult{spec: spec}
	root := tr.open(op, "service.job", spanRef{})
	defer root.close()

	body, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPost, s.base+"/api/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return jr, err
	}
	req.Header.Set("Content-Type", "application/json")
	var view jobView
	sp := tr.open(op, "server.submit", root)
	start := time.Now()
	err = s.do(req, key, &view)
	jr.submit = time.Since(start)
	sp.close()
	if err != nil {
		return jr, err
	}
	jr.hit = view.CacheHit

	sp = tr.open(op, "server.events", root)
	state, err := s.follow(view.ID, key)
	jr.terminal = time.Now()
	jr.latency = jr.terminal.Sub(start)
	sp.close()
	if err != nil {
		return jr, err
	}
	if state != "done" {
		return jr, fmt.Errorf("campaign %s ended %s", view.ID, state)
	}
	if tr != nil {
		sp = tr.open(op, "server.view", root)
		err = s.get("/api/v1/campaigns/"+view.ID, key, &jr.final)
		sp.close()
		if err != nil {
			return jr, err
		}
	}

	var recs []goofi.Record
	for offset := 0; ; {
		var page struct {
			Total   int            `json:"total"`
			Records []goofi.Record `json:"records"`
		}
		sp = tr.open(op, "server.records", root)
		t0 := time.Now()
		err := s.get(fmt.Sprintf("/api/v1/campaigns/%s/records?offset=%d&limit=%d", view.ID, offset, pageLimit), key, &page)
		jr.pages = append(jr.pages, time.Since(t0))
		sp.close()
		if err != nil {
			return jr, err
		}
		recs = append(recs, page.Records...)
		offset += len(page.Records)
		if len(page.Records) == 0 || offset >= page.Total {
			break
		}
	}
	var rep struct {
		Records int `json:"records"`
	}
	sp = tr.open(op, "server.report", root)
	err = s.get("/api/v1/campaigns/"+view.ID+"/report", key, &rep)
	sp.close()
	if err != nil {
		return jr, err
	}
	if len(recs) != spec.Experiments || rep.Records != spec.Experiments {
		return jr, fmt.Errorf("campaign %s served %d records (report %d), want %d", view.ID, len(recs), rep.Records, spec.Experiments)
	}
	for i, r := range recs {
		if r.ID != i {
			return jr, fmt.Errorf("campaign %s record %d has id %d", view.ID, i, r.ID)
		}
	}
	jr.records = len(recs)
	if jr.sum, err = recordsDigest(recs); err != nil {
		return jr, err
	}
	jr.end = time.Now()
	return jr, nil
}

// follow reads the NDJSON event stream until a terminal event.
func (s *service) follow(id, key string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+"/api/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Authorization", "Bearer "+key)
	resp, err := s.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events %s: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("events %s: %w", id, err)
		}
		if terminalStates[ev.Type] {
			return ev.Type, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events %s: stream ended before a terminal event", id)
}

// session is the outcome of a closed-loop service run.
type session struct {
	jobs      []jobResult
	attempted int
	failed    int
	start     time.Time
	window    time.Duration
	delta     map[string]float64 // /metrics counter deltas
}

// rateGroup is how many consecutive job completions one throughput
// sample spans.
const rateGroup = 6

// rates returns the median over groups of rateGroup consecutive job
// completions of experiments and jobs delivered per second. Like the
// campaign workloads' median over cycles, it keeps a burst of outside
// load from moving the figure; with fewer than two groups it falls back
// to the whole window.
func (ss *session) rates() (expPerS, jobsPerS float64) {
	jobs := append([]jobResult(nil), ss.jobs...)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].end.Before(jobs[j].end) })
	if len(jobs) < 2*rateGroup {
		exps := 0
		for _, jr := range jobs {
			exps += jr.records
		}
		return float64(exps) / ss.window.Seconds(), float64(len(jobs)) / ss.window.Seconds()
	}
	var expRates, jobRates []float64
	prev := ss.start
	for g := 0; g+rateGroup <= len(jobs); g += rateGroup {
		exps := 0
		for _, jr := range jobs[g : g+rateGroup] {
			exps += jr.records
		}
		end := jobs[g+rateGroup-1].end
		d := end.Sub(prev).Seconds()
		prev = end
		expRates = append(expRates, float64(exps)/d)
		jobRates = append(jobRates, rateGroup/d)
	}
	return median(expRates), median(jobRates)
}

// runSession drives the service with one closed-loop client per
// tenant until budget has passed; in-flight jobs finish. Client k's
// submissions continue its plan from submission first[k].
func (s *service) runSession(plans []*clientPlan, first []int, budget time.Duration, tr *tracer) (*session, error) {
	before, err := s.metrics()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(budget)
	results := make([][]jobResult, len(plans))
	fails := make([]int, len(plans))
	attempts := make([]int, len(plans))
	var wg sync.WaitGroup
	for k := range plans {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			key := s.keys[k%len(s.keys)]
			for j := first[k]; time.Now().Before(deadline); j++ {
				spec := plans[k].next(j)
				attempts[k]++
				jr, err := s.runJob(key, spec, tr, fmt.Sprintf("job/%d/%d", k, j))
				if err != nil {
					fails[k]++
					fmt.Fprintf(os.Stderr, "client %d job %d: %v\n", k, j, err)
					continue
				}
				results[k] = append(results[k], jr)
			}
			first[k] += attempts[k]
		}(k)
	}
	wg.Wait()
	ss := &session{start: start, window: time.Since(start)}
	for k := range plans {
		ss.jobs = append(ss.jobs, results[k]...)
		ss.attempted += attempts[k]
		ss.failed += fails[k]
	}
	after, err := s.metrics()
	if err != nil {
		return nil, err
	}
	ss.delta = make(map[string]float64)
	for k, v := range after {
		ss.delta[k] = v - before[k]
	}
	return ss, nil
}

// verifySession demands that every spec served more than once came out
// byte-identical each time (a cache miss and its cache hits), and that
// a direct goofi.Run of sampled specs produces the same records the
// service served.
func verifySession(ctx context.Context, ss *session, workers, direct int) error {
	bySpec := map[goofi.CampaignSpec]jobResult{}
	var keys []goofi.CampaignSpec
	hits := map[goofi.CampaignSpec]bool{}
	for _, jr := range ss.jobs {
		k := jr.spec
		if prev, ok := bySpec[k]; ok {
			if prev.sum != jr.sum {
				return fmt.Errorf("spec %+v served different records (hit=%v vs hit=%v)", k, prev.hit, jr.hit)
			}
		} else {
			bySpec[k] = jr
			keys = append(keys, k)
		}
		if jr.hit {
			hits[k] = true
		}
	}
	// Prefer specs served both as a miss and as a hit.
	sort.SliceStable(keys, func(i, j int) bool { return hits[keys[i]] && !hits[keys[j]] })
	if len(keys) > direct {
		keys = keys[:direct]
	}
	for _, k := range keys {
		jr := bySpec[k]
		spec := k
		spec.Workers = workers
		cfg, err := spec.Resolve()
		if err != nil {
			return err
		}
		res, err := goofi.RunContext(ctx, cfg)
		if err != nil {
			return fmt.Errorf("direct run of %+v: %w", k, err)
		}
		sum, err := recordsDigest(res.Records)
		if err != nil {
			return err
		}
		if sum != jr.sum {
			return fmt.Errorf("spec %+v: service records differ from a direct goofi.Run", k)
		}
	}
	if len(ss.jobs) == 0 {
		return errors.New("no service job completed")
	}
	return nil
}
