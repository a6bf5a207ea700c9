package faultinject

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// upstream serves a fixed 4KiB body so fault positions are easy to
// check.
func upstream(t *testing.T) (*httptest.Server, []byte) {
	t.Helper()
	body := bytes.Repeat([]byte("0123456789abcdef"), 256)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	return ts, body
}

func proxyFor(t *testing.T, up string, d Decider) *httptest.Server {
	t.Helper()
	p, err := New(up, d)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	return ts
}

func TestPassThrough(t *testing.T) {
	up, body := upstream(t)
	px := proxyFor(t, up.URL, nil)
	resp, err := http.Get(px.URL + "/data")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("pass-through body differs: %d bytes, want %d", len(got), len(body))
	}
}

func TestRefuse(t *testing.T) {
	up, _ := upstream(t)
	px := proxyFor(t, up.URL, Always(Fault{Kind: KindRefuse}))
	if _, err := http.Get(px.URL + "/data"); err == nil {
		t.Fatal("refused request succeeded")
	}
}

func TestStatus(t *testing.T) {
	up, _ := upstream(t)
	px := proxyFor(t, up.URL, Always(Fault{
		Kind: KindStatus, Status: http.StatusServiceUnavailable, RetryAfter: "7",
	}))
	resp, err := http.Get(px.URL + "/data")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7", got)
	}
}

func TestCutTruncates(t *testing.T) {
	up, _ := upstream(t)
	px := proxyFor(t, up.URL, Always(Fault{Kind: KindCut, AfterBytes: 100}))
	resp, err := http.Get(px.URL + "/data")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatal("cut stream read to completion without error")
	}
	if len(got) > 100 {
		t.Fatalf("cut after 100 bytes delivered %d", len(got))
	}
}

func TestStallDelaysThenDies(t *testing.T) {
	up, _ := upstream(t)
	px := proxyFor(t, up.URL, Always(Fault{
		Kind: KindStall, AfterBytes: 50, StallFor: 300 * time.Millisecond,
	}))
	t0 := time.Now()
	resp, err := http.Get(px.URL + "/data")
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatal("stalled stream read to completion without error")
	}
	if d := time.Since(t0); d < 250*time.Millisecond {
		t.Fatalf("stalled stream died after %v, want >= ~300ms", d)
	}
}

func TestCorruptFlipsOneByte(t *testing.T) {
	up, body := upstream(t)
	px := proxyFor(t, up.URL, Always(Fault{Kind: KindCorrupt, AfterBytes: 1000}))
	resp, err := http.Get(px.URL + "/data")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(body) {
		t.Fatalf("corrupt body length %d, want %d", len(got), len(body))
	}
	if got[1000] != ^body[1000] {
		t.Fatalf("byte 1000 = %#x, want %#x inverted", got[1000], body[1000])
	}
	diffs := 0
	for i := range got {
		if got[i] != body[i] {
			diffs++
		}
	}
	if diffs != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diffs)
	}
}

// TestFlakyDeterministic: the same (seed, n) always draws the same
// fault; a different seed draws a different sequence.
func TestFlakyDeterministic(t *testing.T) {
	faults := []Fault{{Kind: KindRefuse}, {Kind: KindCut, AfterBytes: 64}}
	a := Flaky(42, 0.5, faults...)
	b := Flaky(42, 0.5, faults...)
	other := Flaky(43, 0.5, faults...)
	same, diff := true, true
	for n := int64(1); n <= 200; n++ {
		if a(n, nil) != b(n, nil) {
			same = false
		}
		if a(n, nil) != other(n, nil) {
			diff = false
		}
	}
	if !same {
		t.Fatal("same seed produced different fault sequences")
	}
	if diff {
		t.Fatal("different seeds produced identical fault sequences")
	}
	injectedSome := false
	for n := int64(1); n <= 200; n++ {
		if a(n, nil).Kind != KindNone {
			injectedSome = true
			break
		}
	}
	if !injectedSome {
		t.Fatal("p=0.5 over 200 requests injected nothing")
	}
}

func TestFlapWindows(t *testing.T) {
	d := Flap(10, 3, Fault{Kind: KindRefuse})
	for n := int64(1); n <= 30; n++ {
		want := KindNone
		if (n-1)%10 < 3 {
			want = KindRefuse
		}
		if got := d(n, nil).Kind; got != want {
			t.Fatalf("request %d: kind %v, want %v", n, got, want)
		}
	}
}

func TestExemptHealth(t *testing.T) {
	d := ExemptHealth(Always(Fault{Kind: KindRefuse}))
	hreq := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	if got := d(1, hreq).Kind; got != KindNone {
		t.Fatalf("/healthz drew %v, want none", got)
	}
	sreq := httptest.NewRequest(http.MethodGet, "/v1/tables/T", nil)
	if got := d(2, sreq).Kind; got != KindRefuse {
		t.Fatalf("stream drew %v, want refuse", got)
	}
}

func TestNewRejectsBadUpstream(t *testing.T) {
	for _, u := range []string{"", "nope", "ftp://x", "http://"} {
		if _, err := New(u, nil); err == nil {
			t.Errorf("upstream %q accepted, want error", u)
		}
	}
}

func TestProxyCountsRequests(t *testing.T) {
	up, _ := upstream(t)
	p, err := New(up.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := p.Requests(); got != 3 {
		t.Fatalf("Requests() = %d, want 3", got)
	}
	if !strings.HasPrefix(up.URL, "http://") {
		t.Fatal("unexpected upstream scheme")
	}
}
