package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// These tests pin down the /v1 error-envelope contract at its edges:
// the catch-all 404 body shape and method enforcement on every route.

// An unknown path — the retired unversioned /detect and /model among
// them — gets a 404 whose body is exactly the envelope.
func TestNotFoundEnvelopeExactShape(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	for _, path := range []string{"/v2/detect", "/detect", "/model"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q, want application/json", path, ct)
		}
		// The body must be exactly {"error":{"code":...,"message":...}} —
		// one top-level key, two keys inside, nothing extra.
		var top map[string]json.RawMessage
		if err := json.Unmarshal(body, &top); err != nil {
			t.Fatalf("%s: 404 body is not JSON: %v\n%s", path, err, body)
		}
		if len(top) != 1 || top["error"] == nil {
			t.Fatalf("%s: 404 body keys %v, want exactly {error}", path, top)
		}
		var inner map[string]string
		if err := json.Unmarshal(top["error"], &inner); err != nil {
			t.Fatal(err)
		}
		if len(inner) != 2 {
			t.Fatalf("%s: error object keys %v, want exactly {code, message}", path, inner)
		}
		if inner["code"] != CodeNotFound {
			t.Fatalf("%s: code %q, want %q", path, inner["code"], CodeNotFound)
		}
		if !strings.Contains(inner["message"], path) {
			t.Fatalf("%s: message %q should name the missing path", path, inner["message"])
		}
	}
}

func TestMethodNotAllowedOnEveryRoute(t *testing.T) {
	ts := httptest.NewServer(testServer(t).Handler())
	defer ts.Close()
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodDelete, "/v1/model", http.MethodGet},
		{http.MethodPut, "/v1/stats", http.MethodGet},
		{http.MethodPost, "/v1/metrics", http.MethodGet},
		{http.MethodPost, "/v1/trace", http.MethodGet},
		{http.MethodGet, "/v1/detect", http.MethodPost},
		{http.MethodGet, "/v1/detect/batch", http.MethodPost},
		{http.MethodPut, "/v1/sweep", "GET, POST"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != c.allow {
			t.Fatalf("%s %s: Allow %q, want %q", c.method, c.path, allow, c.allow)
		}
		env := decodeError(t, resp)
		resp.Body.Close()
		if env.Error.Code != CodeMethodNotAllowed {
			t.Fatalf("%s %s: code %q, want %q", c.method, c.path, env.Error.Code, CodeMethodNotAllowed)
		}
	}
}
