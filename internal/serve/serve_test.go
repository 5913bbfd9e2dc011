package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"drainnet/internal/model"
	"drainnet/internal/tensor"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	cfg := model.OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := cfg.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(cfg, net, 0.5, Options{Replicas: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func postJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeError(t *testing.T, resp *http.Response) ErrorEnvelope {
	t.Helper()
	var env ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error envelope did not decode: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code/message: %+v", env)
	}
	return env
}

func validDetectRequest() DetectRequest {
	return DetectRequest{Bands: 4, Size: 40, Pixels: make([]float32, 4*40*40)}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestModelInfoV1(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.InBands != 4 || info.Params <= 0 || info.Notation == "" {
		t.Fatalf("info %+v", info)
	}
	if info.Replicas != 2 || info.MaxBatch != 4 {
		t.Fatalf("pool config not reported: %+v", info)
	}
}

// /v1/model and the msg=serving line (drainnet-serve prints
// Server.Model().ISA) must name the instruction set the tensor kernels
// actually dispatch to.
func TestModelInfoReportsKernelISA(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	want := tensor.KernelISA()
	switch want {
	case "avx512", "avx2", "generic":
	default:
		t.Fatalf("tensor.KernelISA() = %q, not one of avx512, avx2, generic", want)
	}
	if info.ISA != want || s.Model().ISA != want {
		t.Fatalf("/v1/model isa %q, the serving line's %q, tensor serves %q", info.ISA, s.Model().ISA, want)
	}
}

// /v1/model and the msg=serving line report the pixel decoder's path
// from its own gate: a host with the ZMM tensor kernels but without the
// decoder's extra CPUID bits must not read "avx512" there.
func TestModelInfoReportsDecodeISA(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func() ModelInfo {
		resp, err := http.Get(ts.URL + "/v1/model")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info ModelInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	want := "generic"
	if tensor.ByteKernelMissing() == "" {
		want = "avx512"
	}
	if info := get(); info.DecodeISA != want || s.Model().DecodeISA != want {
		t.Fatalf("/v1/model decode_isa %q, the serving line's %q; tensor.ByteKernelMissing() = %q",
			info.DecodeISA, s.Model().DecodeISA, tensor.ByteKernelMissing())
	}
	// The report follows the path pixelsValue takes.
	had := usePixelRun
	defer func() { usePixelRun = had }()
	usePixelRun = false
	if info := get(); info.DecodeISA != "generic" {
		t.Fatalf("decode_isa %q with the kernel off, want generic", info.DecodeISA)
	}
}

func TestDetectValidRequestV1(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/detect", validDetectRequest())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var dr Hit
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.Score < 0 || dr.Score > 1 {
		t.Fatalf("score %v", dr.Score)
	}
	if dr.Box == nil || dr.Point != nil || dr.Scenario != "" {
		t.Fatalf("clip hit should carry a box and nothing raster-scoped: %+v", dr)
	}
}

func TestDetectVariableClipSize(t *testing.T) {
	// The SPP property: the served model accepts other clip sizes.
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	req := DetectRequest{Bands: 4, Size: 64, Pixels: make([]float32, 4*64*64)}
	resp := postJSON(t, ts.URL+"/v1/detect", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d for 64×64 clip", resp.StatusCode)
	}
}

func TestDetectRejectsBadInputs(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	cases := []DetectRequest{
		{Bands: 3, Size: 40, Pixels: make([]float32, 3*40*40)}, // wrong bands
		{Bands: 4, Size: 40, Pixels: make([]float32, 7)},       // wrong length
		{Bands: 4, Size: 2, Pixels: make([]float32, 16)},       // too small
		{Bands: 4, Size: 0, Pixels: nil},                       // non-positive
		{Bands: 4, Size: -40, Pixels: make([]float32, 6400)},   // negative
	}
	for i, req := range cases {
		resp := postJSON(t, ts.URL+"/v1/detect", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, resp.StatusCode)
		}
		env := decodeError(t, resp)
		resp.Body.Close()
		if env.Error.Code != CodeInvalidRequest {
			t.Fatalf("case %d: code %q, want %q", i, env.Error.Code, CodeInvalidRequest)
		}
	}
}

func TestValidateRejectsNonFinitePixels(t *testing.T) {
	// NaN/Inf cannot ride standard JSON, so exercise the validator
	// directly: these reach it from programmatic API use.
	s := testServer(t)
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		req := validDetectRequest()
		req.Pixels[17] = bad
		e := s.validate(&req)
		if e == nil || e.Code != CodeInvalidRequest {
			t.Fatalf("pixel %v accepted; want %s error", bad, CodeInvalidRequest)
		}
	}
}

func TestMethodEnforcement(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	// GET on a POST route.
	resp, err := http.Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
	env := decodeError(t, resp)
	resp.Body.Close()
	if env.Error.Code != CodeMethodNotAllowed {
		t.Fatalf("code %q", env.Error.Code)
	}
	// POST on a GET route.
	resp = postJSON(t, ts.URL+"/v1/model", struct{}{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/model: status %d, want 405", resp.StatusCode)
	}
}

func TestDetectRejectsGarbageJSON(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	env := decodeError(t, resp)
	resp.Body.Close()
	if env.Error.Code != CodeBadJSON {
		t.Fatalf("code %q, want %q", env.Error.Code, CodeBadJSON)
	}
}

func TestDetectBatchPositionalResults(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	batch := BatchRequest{Items: []DetectRequest{
		validDetectRequest(),
		{Bands: 3, Size: 40, Pixels: make([]float32, 3*40*40)}, // invalid item
		validDetectRequest(),
	}}
	resp := postJSON(t, ts.URL+"/v1/detect/batch", batch)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	items := br.Items
	if len(items) != 3 {
		t.Fatalf("%d items, want 3", len(items))
	}
	if items[0].Result == nil || items[0].Error != nil {
		t.Fatalf("item 0 should succeed: %+v", items[0])
	}
	if items[0].Result.Box == nil {
		t.Fatalf("batch hit missing box: %+v", items[0].Result)
	}
	if items[1].Error == nil || items[1].Error.Code != CodeInvalidRequest {
		t.Fatalf("item 1 should fail validation: %+v", items[1])
	}
	if items[2].Result == nil {
		t.Fatalf("item 2 should succeed: %+v", items[2])
	}
}

// A size whose bands·size² overflows int is refused as a bad clip on both
// routes, even where the product wraps to the pixel count sent; it never
// reaches a replica to allocate.
func TestHugeClipSizeRefused(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	for _, clip := range []string{
		`{"bands":4,"size":2147483648,"pixels":[]}`, // 4·2^62 wraps to 0
		`{"bands":4,"size":4294967296,"pixels":[]}`, // 4·2^64 wraps to 0
		`{"bands":4,"size":3037000500,"pixels":[]}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", strings.NewReader(clip)))
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusBadRequest || env.Error.Code != CodeInvalidRequest {
			t.Fatalf("/v1/detect %s: status %d, %v: %s", clip, rec.Code, err, rec.Body)
		}

		rec = httptest.NewRecorder()
		body := batchBody([]byte(clip), harnessClip(1, 40))
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect/batch", bytes.NewReader(body)))
		var br BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || rec.Code != http.StatusOK || len(br.Items) != 2 {
			t.Fatalf("/v1/detect/batch %s: status %d, %v: %s", clip, rec.Code, err, rec.Body)
		}
		if it := br.Items[0]; it.Error == nil || it.Error.Code != CodeInvalidRequest || it.Error.Message != "item 0: "+env.Error.Message {
			t.Fatalf("/v1/detect/batch %s: item 0 %+v, want %q", clip, it, env.Error.Message)
		}
		if it := br.Items[1]; it.Result == nil || it.Error != nil {
			t.Fatalf("/v1/detect/batch %s: item 1 %+v, want a result", clip, it)
		}
	}
}

// The clips of one batch request reach the pool as one unit: on an idle
// server they leave as the fewest forward passes max-batch allows, however
// many replicas are idle, and every answer is the reference detection.
func TestDetectBatchRidesTogether(t *testing.T) {
	for _, c := range []struct {
		items int
		sizes map[int]uint64 // batch size → forward passes
	}{
		{16, map[int]uint64{16: 1}},
		{20, map[int]uint64{16: 1, 4: 1}},
	} {
		s, reference := detectReference(t, Options{Replicas: 2, MaxBatch: 16, QueueSize: 64})
		clips := make([][]byte, c.items)
		for i := range clips {
			clips[i] = harnessClip(int64(i), 40)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect/batch", bytes.NewReader(batchBody(clips...))))
		var br BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || rec.Code != http.StatusOK || len(br.Items) != c.items {
			t.Fatalf("%d items: status %d, %v: %s", c.items, rec.Code, err, rec.Body)
		}
		for i, it := range br.Items {
			if !sameHit(reference(clips[i]), it.Result) {
				t.Fatalf("%d items: item %d answered %+v", c.items, i, it)
			}
		}
		// Stats.BatchSizes is the drainnet_batch_size histogram.
		for size, n := range s.Pool().Stats().BatchSizes {
			if n != c.sizes[size+1] {
				t.Fatalf("%d items: %d batches of %d, want %d", c.items, n, size+1, c.sizes[size+1])
			}
		}
	}
}

// A batch request that meets the queue bound part-way is answered
// positionally: the items that fit are served, the rest say queue_full.
func TestDetectBatchPartialAdmission(t *testing.T) {
	s, reference := detectReference(t, Options{Replicas: 1, MaxBatch: 8, QueueSize: 4})
	clips := make([][]byte, 6)
	for i := range clips {
		clips[i] = harnessClip(int64(i), 40)
	}
	clips[1] = []byte(`{"bands":3,"size":8,"pixels":[]}`) // fails its check: takes no room
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect/batch", bytes.NewReader(batchBody(clips...))))
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || rec.Code != http.StatusOK || len(br.Items) != len(clips) {
		t.Fatalf("status %d, %v: %s", rec.Code, err, rec.Body)
	}
	for i, it := range br.Items {
		switch i {
		case 1:
			if it.Error == nil || it.Error.Code != CodeInvalidRequest {
				t.Fatalf("item 1: %+v, want %s", it, CodeInvalidRequest)
			}
		case 5:
			if it.Error == nil || it.Error.Code != CodeQueueFull || !strings.HasPrefix(it.Error.Message, "item 5: ") {
				t.Fatalf("item 5: %+v, want %s", it, CodeQueueFull)
			}
		default:
			if !sameHit(reference(clips[i]), it.Result) {
				t.Fatalf("item %d answered %+v", i, it)
			}
		}
	}
	if st := s.Pool().Stats(); st.Served != 4 || st.Rejected != 1 || st.Batches != 1 {
		t.Fatalf("stats %+v, want the 4 admitted items in one batch and 1 rejected", st)
	}
}

func TestDetectBatchRejectsEmpty(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/detect/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	env := decodeError(t, resp)
	resp.Body.Close()
	if env.Error.Code != CodeInvalidRequest {
		t.Fatalf("code %q", env.Error.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/detect", validDetectRequest())
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Served     uint64   `json:"served"`
		Batches    uint64   `json:"batches"`
		BatchSizes []uint64 `json:"batch_size_histogram"`
		PerReplica []uint64 `json:"per_replica_served"`
		P50        float64  `json:"latency_p50_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Served != 3 || st.Batches == 0 {
		t.Fatalf("stats %+v", st)
	}
	var clips uint64
	for size, n := range st.BatchSizes {
		clips += uint64(size+1) * n
	}
	if clips != st.Served {
		t.Fatalf("histogram accounts for %d clips, served %d", clips, st.Served)
	}
	if st.P50 <= 0 {
		t.Fatalf("latency p50 %v, want > 0", st.P50)
	}
}

func TestDetectAfterCloseUnavailable(t *testing.T) {
	cfg := model.OriginalSPPNet().Scaled(16).WithInput(4, 40)
	net, err := cfg.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(cfg, net, 0.5, Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Close()
	resp := postJSON(t, ts.URL+"/v1/detect", validDetectRequest())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	env := decodeError(t, resp)
	resp.Body.Close()
	if env.Error.Code != CodeUnavailable {
		t.Fatalf("code %q", env.Error.Code)
	}
}

func TestDetectConcurrentRequests(t *testing.T) {
	// Concurrent clients must all succeed; the pool coalesces them into
	// batches across replicas (this races without replica isolation).
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(validDetectRequest())
			resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent request failed: %v", err)
		}
	}
}

func TestUnknownRouteEnvelope(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	env := decodeError(t, resp)
	resp.Body.Close()
	if env.Error.Code != CodeNotFound {
		t.Fatalf("code %q, want %q", env.Error.Code, CodeNotFound)
	}
}
