package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/topology"
	"repro/internal/workloads"
)

// The serve_mixed request stream. Its shape follows the workload's
// definition: about nine in ten requests name a registry key warmed
// during set-up, Zipf-chosen, and about one in ten uploads a unique
// stencil of seeded size 128-256 that must be mapped cold, some with a
// seeded machine_json. Nothing in the repository records real topomapd
// traffic, so the mix is an assumption, and so are the values below that
// the definition leaves open.
const (
	// adhocEvery puts one ad-hoc request, at a seeded position, in every
	// block of adhocEvery requests. A fixed share per block, rather than
	// a draw per request, keeps the number of cold requests per run, and
	// with it the throughput, from swinging with the seed.
	adhocEvery = 10
	// zipfS is the Zipf exponent over the warm keys; Go's rand.Zipf needs
	// one above 1. Unverified.
	zipfS = 1.2
	// machineJSONEvery makes every third ad-hoc request upload its machine
	// as JSON instead of naming it. Unverified.
	machineJSONEvery = 3
)

// adhocSizes are the stencil sizes of the ad-hoc requests. Each client
// visits them in a seeded order, every size once per cycle, so every seed
// draws the same mix of cold costs.
var adhocSizes = []int{128, 160, 192, 224, 256}

// Sample floors of a serve_mixed run's stream. With them the percentile
// rule reports p95 for op_ms_p99, and cold_ms_p50 has enough samples.
const (
	serveMinOps  = 200
	serveMinCold = 20
)

// serveSetupReps is how many times serve_mixed launches its set-up.
const serveSetupReps = 3

// warmKey is one registry request of the warm set: Table 2 × Dunnington ×
// {base, combined}.
type warmKey struct{ kernel, scheme string }

func warmKeys() []warmKey {
	var keys []warmKey
	for _, k := range workloads.All() {
		keys = append(keys, warmKey{k.Name, "base"}, warmKey{k.Name, "combined"})
	}
	return keys
}

// serveReq is one generated request.
type serveReq struct {
	body []byte
	// warm indexes warmKeys for a registry request and is -1 for an
	// ad-hoc upload.
	warm int
	// accesses is what an ad-hoc request must simulate:
	// (size-2)² iterations × 5 references.
	accesses uint64
}

// reqStream generates one client's requests as a pure function of the
// seed and the client number.
type reqStream struct {
	seed    int64
	client  int
	rng     *rand.Rand
	zipf    *rand.Zipf
	rankKey []int
	warm    [][]byte
	sent    int
	adhocAt int
	adhoc   int
	sizes   []int
}

// newStream starts client's stream; warm holds the registry request
// bodies.
func newStream(seed int64, client int, warm [][]byte) *reqStream {
	rng := rand.New(rand.NewSource(int64(uint64(seed) ^ uint64(client+1)*0x9e3779b97f4a7c15)))
	return &reqStream{
		seed: seed, client: client, rng: rng,
		zipf:    rand.NewZipf(rng, zipfS, 1, uint64(len(warm)-1)),
		rankKey: rng.Perm(len(warm)),
		warm:    warm,
	}
}

// next returns the stream's next request.
func (s *reqStream) next() serveReq {
	if s.sent%adhocEvery == 0 {
		s.adhocAt = s.rng.Intn(adhocEvery)
	}
	isAdhoc := s.sent%adhocEvery == s.adhocAt
	s.sent++
	if !isAdhoc {
		key := s.rankKey[s.zipf.Uint64()]
		return serveReq{body: s.warm[key], warm: key}
	}
	i := s.adhoc
	s.adhoc++
	if i%len(adhocSizes) == 0 {
		s.sizes = make([]int, len(adhocSizes))
		for j, k := range s.rng.Perm(len(adhocSizes)) {
			s.sizes[j] = adhocSizes[k]
		}
	}
	size := s.sizes[i%len(adhocSizes)]
	req := serve.MapRequest{
		KernelSource: stencilSource(size),
		KernelName:   fmt.Sprintf("adhoc-s%d-c%d-%d", s.seed, s.client, i),
		Scheme:       "combined",
		Machine:      "dunnington",
	}
	if i%machineJSONEvery == machineJSONEvery-1 {
		// A Dunnington with a seeded memory latency: a distinct upload
		// whose mapping costs what the named machine's does.
		m := topology.Dunnington()
		m.Name = fmt.Sprintf("dunnington-s%d-c%d-%d", s.seed, s.client, i)
		m.MemLatency += s.rng.Intn(41) - 20
		data, err := topology.MarshalMachine(m)
		if err != nil {
			panic(err) // the built-in Dunnington always marshals
		}
		req.Machine, req.MachineJSON = "", data
	}
	body, _ := json.Marshal(&req) // strings and raw JSON always encode
	n := uint64(size - 2)
	return serveReq{body: body, warm: -1, accesses: n * n * 5}
}

// stencilSource is a 5-point Jacobi sweep over an n×n grid.
func stencilSource(n int) string {
	return fmt.Sprintf("array A[%d][%d]\narray B[%d][%d]\nfor (i = 1; i <= %d) {\n  for (j = 1; j <= %d) {\n    B[i][j] = A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1];\n  }\n}\n",
		n, n, n, n, n-2, n-2)
}

// warmBodies builds the registry request bodies of the warm key set.
func warmBodies() [][]byte {
	var warm [][]byte
	for _, k := range warmKeys() {
		body, _ := json.Marshal(&serve.MapRequest{Kernel: k.kernel, Machine: "dunnington", Scheme: k.scheme}) // strings always encode
		warm = append(warm, body)
	}
	return warm
}

// server is an in-process topomapd serving on a loopback listener.
type server struct {
	srv    *serve.Server
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// startServer starts serve.New with Workers=2 and every other option at
// its default, and waits until /readyz answers.
func startServer(ctx context.Context) (*server, error) {
	srv, err := serve.New(serve.Options{Workers: concurrency()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &server{
		srv:    srv,
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: concurrency(), MaxConnsPerHost: concurrency()}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { s.done <- srv.Serve(sctx, ln) }()
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		resp, err := s.client.Get(s.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Since(start) > 5*time.Second {
			_ = s.stop()
			return nil, fmt.Errorf("server not ready after 5s: %v", err)
		}
	}
}

// stop drains the server and waits for Serve to return.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	s.cancel()
	err := <-s.done
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// post sends one /v1/map request and decodes the envelope.
func (s *server) post(ctx context.Context, body []byte) (int, *serve.Envelope, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+"/v1/map", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	env := &serve.Envelope{}
	if err := json.NewDecoder(resp.Body).Decode(env); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decoding envelope: %w", err)
	}
	return resp.StatusCode, env, nil
}

// status reads /statusz.
func (s *server) status(ctx context.Context) (serve.Status, error) {
	var st serve.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/statusz", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decoding /statusz: %w", err)
	}
	return st, nil
}

// setUpServer starts a server and warms the registry key set through it,
// returning each warm key's simulated cycles.
func setUpServer(ctx context.Context, warm [][]byte) (*server, []uint64, error) {
	s, err := startServer(ctx)
	if err != nil {
		return nil, nil, err
	}
	cycles := make([]uint64, len(warm))
	errs := make([]error, concurrency())
	var wg sync.WaitGroup
	for c := 0; c < concurrency(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(warm); i += concurrency() {
				code, env, err := s.post(ctx, warm[i])
				if err == nil && (code != http.StatusOK || !env.OK) {
					err = fmt.Errorf("warm request %s answered %d", warm[i], code)
				}
				if err != nil {
					errs[c] = err
					return
				}
				cycles[i] = env.Result.TotalCycles
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			_ = s.stop()
			return nil, nil, fmt.Errorf("warming: %w", err)
		}
	}
	return s, cycles, nil
}

// served is one answered request of a run.
type served struct {
	req  serveReq
	ms   float64
	code int
	env  *serve.Envelope
	err  error
}

func (r *served) ok() bool { return r.err == nil && r.code == http.StatusOK && r.env.OK }

func (r *served) source() string {
	if r.ok() {
		return r.env.Result.Source
	}
	return ""
}

// closedLoop runs one closed-loop client per worker: each sends the next
// request of its own stream only once the previous one is
// answered. Before each request a client asks done, given the answers so
// far (all and cold) and its own count, whether to stop.
func closedLoop(ctx context.Context, s *server, warm [][]byte, seed int64, done func(sent, coldSent int64, mine int) bool) []served {
	var sent, coldSent atomic.Int64
	out := make([][]served, concurrency())
	var wg sync.WaitGroup
	for c := 0; c < concurrency(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := newStream(seed, c, warm)
			for !done(sent.Load(), coldSent.Load(), len(out[c])) && ctx.Err() == nil {
				req := stream.next()
				start := time.Now()
				code, env, err := s.post(ctx, req.body)
				r := served{req: req, ms: ms(time.Since(start)), code: code, env: env, err: err}
				out[c] = append(out[c], r)
				sent.Add(1)
				if r.source() == "computed" {
					coldSent.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	var all []served
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// evalReference computes each warm key's cycles in-process with
// repro.EvaluateContext, the reference the server's answers must match.
func evalReference(ctx context.Context) ([]uint64, error) {
	keys := warmKeys()
	cycles := make([]uint64, len(keys))
	errs := make([]error, concurrency())
	var wg sync.WaitGroup
	for c := 0; c < concurrency(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(keys); i += concurrency() {
				k, err := repro.KernelByName(keys[i].kernel)
				if err != nil {
					errs[c] = err
					return
				}
				scheme := repro.SchemeBase
				if keys[i].scheme == "combined" {
					scheme = repro.SchemeCombined
				}
				run, err := repro.EvaluateContext(ctx, k, repro.Dunnington(), scheme, repro.DefaultConfig())
				if err != nil {
					errs[c] = err
					return
				}
				cycles[i] = run.Sim.TotalCycles
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference evaluation: %w", err)
		}
	}
	return cycles, nil
}

// checkServed counts the answers that are not an ok envelope or whose
// result disagrees with the reference: registry answers must carry the
// in-process cycles, ad-hoc answers the expected access count.
func checkServed(all []served, ref []uint64) int {
	failed := 0
	for _, r := range all {
		switch {
		case !r.ok():
			report("FAIL request answered %d (%v)", r.code, r.err)
		case r.req.warm >= 0 && r.env.Result.TotalCycles != ref[r.req.warm]:
			report("FAIL %s: %d cycles, in-process %d", r.env.Result.Key, r.env.Result.TotalCycles, ref[r.req.warm])
		case r.req.warm < 0 && r.env.Result.Accesses != r.req.accesses:
			report("FAIL %s: %d accesses, want %d", r.env.Result.Key, r.env.Result.Accesses, r.req.accesses)
		default:
			continue
		}
		failed++
	}
	return failed
}

// warmCyclesRatio is the geometric mean over the warm kernels of
// Combined cycles ÷ Base cycles on Dunnington.
func warmCyclesRatio(cycles []uint64) float64 {
	keys := warmKeys()
	base := make(map[string]uint64)
	var ratios []float64
	for i, k := range keys {
		if k.scheme == "base" {
			base[k.kernel] = cycles[i]
		}
	}
	for i, k := range keys {
		if k.scheme == "combined" && base[k.kernel] > 0 {
			ratios = append(ratios, float64(cycles[i])/float64(base[k.kernel]))
		}
	}
	return geomean(ratios)
}

// setUpServeMixed is serve_mixed's set-up: server start, /readyz and the
// warm phase.
func setUpServeMixed(ctx context.Context) (func() error, error) {
	s, _, err := setUpServer(ctx, warmBodies())
	if err != nil {
		return nil, err
	}
	return s.stop, nil
}

// measureServeMixed times the set-up, sets the server up once more for
// its own use, then runs the closed loop until the measuring time has
// passed and the sample floors are met. Times are scaled to the reference
// host speed over the timed region.
func measureServeMixed(ctx context.Context, o options) (*outcome, error) {
	setup, err := measureSetup(ctx, o, "serve_mixed", serveSetupReps)
	if err != nil {
		return nil, err
	}
	warm := warmBodies()
	s, warmCycles, err := setUpServer(ctx, warm)
	if err != nil {
		return nil, err
	}

	allocStart := heapAllocBytes()
	start := time.Now()
	deadline := start.Add(o.seconds)
	all := closedLoop(ctx, s, warm, o.seed, func(sent, coldSent int64, _ int) bool {
		return time.Now().After(deadline) && sent >= serveMinOps && coldSent >= serveMinCold
	})
	end := time.Now()
	allocs := heapAllocBytes() - allocStart
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := s.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	f, err := o.speed.factor(start, end)
	if err != nil {
		return nil, err
	}
	wall := end.Sub(start).Seconds()

	ref, err := evalReference(ctx)
	if err != nil {
		return nil, err
	}
	failed := checkServed(all, ref)
	var opMS, coldMS []float64
	var accesses uint64
	for _, r := range all {
		if !r.ok() {
			continue
		}
		opMS = append(opMS, r.ms*f)
		if r.source() == "computed" {
			coldMS = append(coldMS, r.ms*f)
			accesses += r.env.Result.Accesses
		}
	}
	pOp, _ := tailPercentile(serveMinOps)
	tailNote("op_ms_p99", pOp, len(opMS))
	report("ops_per_s: raw %.4f, at reference speed %.4f", float64(len(opMS))/wall, float64(len(opMS))/wall/f)
	report("cold_ms_p50 over n=%d computed answers; fail_ratio %d/%d; %.2fs measured", len(coldMS), failed, len(all), wall)
	return &outcome{
		attempted: len(all),
		failed:    failed,
		values: map[string]float64{
			"setup_s":           setup,
			"ops_per_s":         float64(len(opMS)) / wall / f,
			"op_ms_p50":         median(opMS),
			"op_ms_p99":         percentile(opMS, pOp),
			"cold_ms_p50":       median(coldMS),
			"sim_maccess_per_s": float64(accesses) / 1e6 / wall / f,
			"alloc_mb_per_op":   float64(allocs) / 1e6 / float64(max(len(opMS), 1)),
			"peak_rss_mb":       rss,
			"cycles_ratio":      warmCyclesRatio(warmCycles),
			"ok_ratio":          float64(len(all)-failed) / float64(len(all)),
		},
	}, nil
}
