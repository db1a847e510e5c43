package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ctacluster/internal/api"
	"ctacluster/internal/arch"
	"ctacluster/internal/calib"
	"ctacluster/internal/engine"
	"ctacluster/internal/server"
	"ctacluster/internal/workloads"
)

// The serve-zipf workload: ctad in process behind a loopback listener,
// driven by a closed loop of one client per CPU, each waiting for its
// reply before sending the next request, as ctafleet does.
const (
	serveRequests = 1500
	serveKeyCount = 150
	zipfS         = 1.1
	// keyOrderSeed fixes which keys are hot; the run's seed only orders
	// the requests.
	keyOrderSeed = 1
)

var serveSchemes = []string{"BSL", "RD", "CLU"}

// serveKeys is the fixed key space: serveKeyCount distinct (app, arch,
// scheme) cells, most popular first.
func serveKeys() []cell {
	var all []cell
	for _, ar := range arch.All() {
		for _, app := range workloads.Table2() {
			for _, s := range serveSchemes {
				all = append(all, cell{ar: ar, app: app, scheme: s})
			}
		}
	}
	perm := rand.New(rand.NewSource(keyOrderSeed)).Perm(len(all))
	out := make([]cell, serveKeyCount)
	for i := range out {
		out[i] = all[perm[i]]
	}
	return out
}

// zipfSequence returns n key ranks in [0, keys) in an order drawn from
// seed. Rank k appears in proportion to (k+1)^-zipfS, the Zipf(s=1.1)
// shape, with the counts fixed by largest-remainder rounding: every seed
// then simulates the same keys equally often, and seeds differ only in
// arrival order (which misses overlap, which requests share a flight).
func zipfSequence(seed int64, n, keys int) []int {
	weights := make([]float64, keys)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -zipfS)
		total += weights[k]
	}
	counts := make([]int, keys)
	rest := make([]int, keys)
	left := n
	for k, w := range weights {
		counts[k] = int(float64(n) * w / total)
		left -= counts[k]
		rest[k] = k
	}
	frac := func(k int) float64 { return float64(n)*weights[k]/total - float64(counts[k]) }
	sort.SliceStable(rest, func(a, b int) bool { return frac(rest[a]) > frac(rest[b]) })
	for _, k := range rest[:left] {
		counts[k]++
	}
	out := make([]int, 0, n)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, k)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// orderSeed derives repetition job's request-order seed from the run's
// seed, so a run's repetitions see different orders of the same mix.
func orderSeed(seed int64, job int) int64 {
	r := rand.New(rand.NewSource(seed))
	v := r.Int63()
	for i := 0; i < job; i++ {
		v = r.Int63()
	}
	return v
}

// reply is one request's outcome as the client saw it.
type reply struct {
	latency     time.Duration
	status      int
	disposition string // X-Ctad-Cache: hit, miss or dedup
	body        []byte
	err         error
}

type serveJob struct {
	clients int
	keys    []cell
	reqs    [][]byte // request body per key
	seq     []int
	ref     *calib.Reference
	dir     string
	hs      *http.Server
	served  chan error
	client  *http.Client
	url     string
	replies []reply
}

func setupServe(b *bench) (job, error) {
	ref, err := calib.Load()
	if err != nil {
		return nil, err
	}
	j := &serveJob{clients: b.nproc, keys: serveKeys(), ref: ref, seq: zipfSequence(orderSeed(b.opts.seed, b.opts.job), serveRequests, serveKeyCount)}
	for _, k := range j.keys {
		body, err := json.Marshal(api.SimulateRequest{App: k.app.Name(), Arch: k.ar.Name, Scheme: k.scheme})
		if err != nil {
			return nil, err
		}
		j.reqs = append(j.reqs, body)
	}
	if j.dir, err = os.MkdirTemp(b.tmp, "ctad-cache-"); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Workers: b.nproc, CacheDir: j.dir})
	if err != nil {
		os.RemoveAll(j.dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(j.dir)
		return nil, err
	}
	j.url = "http://" + ln.Addr().String()
	j.hs = &http.Server{Handler: srv.Handler()}
	j.served = make(chan error, 1)
	go func() { j.served <- j.hs.Serve(ln) }()
	j.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: b.nproc, DisableCompression: true}}
	// Set-up ends when the daemon answers.
	resp, err := j.client.Get(j.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

// run sends the request sequence from one closed-loop client per CPU.
func (j *serveJob) run() {
	j.replies = make([]reply, len(j.seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < j.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(j.seq) {
					return
				}
				j.replies[i] = j.send(j.reqs[j.seq[i]])
			}
		}()
	}
	wg.Wait()
}

func (j *serveJob) send(body []byte) reply {
	t0 := time.Now()
	resp, err := j.client.Post(j.url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{latency: time.Since(t0), err: err}
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return reply{
		latency: time.Since(t0), status: resp.StatusCode,
		disposition: resp.Header.Get("X-Ctad-Cache"), body: out, err: err,
	}
}

// check counts one operation per request: it must succeed, its body
// must equal the first body served for its key, and a BSL body must
// carry the reference cycles.
func (j *serveJob) check(b *bench) {
	first := map[int][]byte{}
	for i, r := range j.replies {
		k := j.keys[j.seq[i]]
		if r.err != nil || r.status != http.StatusOK {
			b.check(false, fmt.Sprintf("serve-zipf request %d (%s): status %d, %v", i, k, r.status, r.err))
			continue
		}
		f, seen := first[j.seq[i]]
		if !seen {
			first[j.seq[i]] = r.body
			f = r.body
		}
		ok := bytes.Equal(r.body, f)
		if ok && k.scheme == "BSL" && !seen {
			ok = j.checkBaseline(b, k, r.body)
		}
		b.check(ok, fmt.Sprintf("serve-zipf request %d (%s): body differs from the key's first body or the reference", i, k))
	}
}

func (j *serveJob) checkBaseline(b *bench, k cell, body []byte) bool {
	var resp api.SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	t, err := j.ref.TargetFor(k.ar.Name, k.app.Name())
	if err != nil {
		return false
	}
	e := relErr(float64(resp.Cycles), float64(t.Cycles))
	b.noteSimErr(e)
	return e == 0
}

func (j *serveJob) requests() int { return len(j.seq) }

func (j *serveJob) latencies() []float64 {
	out := make([]float64, len(j.replies))
	for i, r := range j.replies {
		out[i] = float64(r.latency.Nanoseconds()) / 1e6
	}
	return out
}

// split returns the latencies, in milliseconds, of the requests whose
// cache disposition is d.
func (j *serveJob) split(d string) []float64 {
	var out []float64
	for _, r := range j.replies {
		if r.disposition == d {
			out = append(out, float64(r.latency.Nanoseconds())/1e6)
		}
	}
	return out
}

func (j *serveJob) metrics() (*api.MetricsResponse, error) {
	resp, err := j.client.Get(j.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m api.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &m, nil
}

// close stops the daemon, waits for it, and removes its cache.
func (j *serveJob) close() error {
	j.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := j.hs.Shutdown(ctx)
	if serr := <-j.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(j.dir); err == nil {
		err = rerr
	}
	return err
}

func traceServe(b *bench) error {
	jb, err := setupServe(b)
	if err != nil {
		return err
	}
	j := jb.(*serveJob)
	t0 := time.Now()
	j.run()
	wall := time.Since(t0).Seconds()
	j.check(b)
	m, err := j.metrics()
	if cerr := j.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	hit, miss := j.split("hit"), j.split("miss")
	missP90, used := tail(miss, 0.9)
	b.record["hits"], b.record["misses"], b.record["dedups"] = len(hit), len(miss), len(j.split("dedup"))
	b.record["hit_p50_ms"] = median(hit)
	b.record["miss_p50_ms"] = median(miss)
	b.record["miss_p90_ms"] = missP90
	b.record["miss_p90_percentile_used"] = used

	// The engine runs behind the requests: every key requested, once,
	// in rank order.
	in := traceInput{wall: wall, metrics: m}
	first := map[int][]byte{}
	for i, r := range j.replies {
		if _, ok := first[j.seq[i]]; !ok {
			first[j.seq[i]] = r.body
		}
	}
	ranks := make([]int, 0, len(first))
	for r := range first {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	seenArch := map[string]bool{}
	for _, r := range ranks {
		c := j.keys[r]
		in.units = append(in.units, unit{name: c.String(), fn: func() error {
			_, err := c.run()
			return err
		}})
		in.cells = append(in.cells, c)
		if !seenArch[c.ar.Name] {
			seenArch[c.ar.Name] = true
			in.platforms = append(in.platforms, c.ar)
		}
	}
	in.verify = func(i int, _ *engine.Result, body []byte) bool {
		return bytes.Equal(body, first[ranks[i]])
	}
	// The four hottest keys.
	in.capture = in.cells[:4]
	return traceLayers(b, in)
}
