package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"stopandstare"
	"stopandstare/internal/serving"
)

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"1048576", 1 << 20, true},
		{"64KiB", 64 << 10, true},
		{"512MiB", 512 << 20, true},
		{"2GiB", 2 << 30, true},
		{" 2 GiB ", 2 << 30, true},
		{"1.5GiB", 0, false},
		{"-1", 0, false},
		{"12MB", 0, false}, // decimal units are ambiguous; rejected
	} {
		got, err := parseSize(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestParseTenants(t *testing.T) {
	specs, err := parseTenants(" acme = a.sasg , globex=b.sasg ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []tenantSpec{{"acme", "a.sasg"}, {"globex", "b.sasg"}}
	if len(specs) != len(want) || specs[0] != want[0] || specs[1] != want[1] {
		t.Fatalf("specs %v, want %v", specs, want)
	}
	for _, bad := range []string{"acme", "=x.sasg", "acme=", "a=x.sasg,a=y.sasg"} {
		if _, err := parseTenants(bad); err == nil {
			t.Errorf("parseTenants(%q): no error", bad)
		}
	}
}

// TestBuildManagerPreset drives the full flag-to-fleet path: a preset
// default tenant plus a lazy graph-file tenant, queried over HTTP with
// warm reuse, tenant routing, and the fleet /stats shape.
func TestBuildManagerPreset(t *testing.T) {
	g, err := stopandstare.GeneratePowerLaw(500, 2500, 2.1, 17)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "extra.sasg")
	if err := g.WriteMappedFile(path); err != nil {
		t.Fatal(err)
	}

	mgr, scfg, err := buildManager(options{
		preset: "nethept", scale: 0.02, model: "IC", seed: 1, workers: 2,
		tenants: "extra=" + path,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	if scfg.DefaultTenant != "default" {
		t.Fatalf("default tenant %q, want %q", scfg.DefaultTenant, "default")
	}
	ts := httptest.NewServer(serving.NewServer(mgr, scfg).Handler())
	t.Cleanup(ts.Close)

	post := func(body string) serving.MaximizeResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/maximize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %q: status %d", body, resp.StatusCode)
		}
		var out serving.MaximizeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	cold := post(`{"k":8,"epsilon":0.3}`)
	if cold.Tenant != "default" || len(cold.Seeds) != 8 || cold.Warm {
		t.Fatalf("cold: tenant %q seeds %d warm %v", cold.Tenant, len(cold.Seeds), cold.Warm)
	}
	warm := post(`{"k":8,"epsilon":0.3}`)
	if !warm.Warm || len(warm.Seeds) != 8 {
		t.Fatalf("repeat not warm: %+v", warm)
	}
	for i := range warm.Seeds {
		if warm.Seeds[i] != cold.Seeds[i] {
			t.Fatalf("warm seeds %v != cold seeds %v", warm.Seeds, cold.Seeds)
		}
	}
	if extra := post(`{"tenant":"extra","k":5,"epsilon":0.35}`); extra.Tenant != "extra" || len(extra.Seeds) != 5 {
		t.Fatalf("extra tenant: %+v", extra)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serving.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 3 || len(st.Tenants) != 2 {
		t.Fatalf("stats: queries=%d tenants=%d", st.Queries, len(st.Tenants))
	}
	for _, ten := range st.Tenants {
		if ten.Name == "extra" && ten.GraphMappedBytes == 0 && ten.GraphResidentBytes == 0 {
			t.Fatalf("lazy .sasg tenant has no graph bytes after query: %+v", ten)
		}
	}
}

func TestBuildManagerErrors(t *testing.T) {
	for name, o := range map[string]options{
		"no source":  {model: "IC"},
		"bad model":  {preset: "nethept", scale: 0.02, model: "XX"},
		"bad budget": {preset: "nethept", scale: 0.02, model: "IC", budget: "lots"},
		"bad tenant": {preset: "nethept", scale: 0.02, model: "IC", tenants: "x"},
	} {
		if _, _, err := buildManager(o); err == nil {
			t.Errorf("%s: buildManager accepted %+v", name, o)
		}
	}
}

// TestServeAndDrain checks graceful shutdown end to end: a signal stops
// the listener but the in-flight request — held mid-execution on a gate —
// still completes before serveAndDrain returns.
func TestServeAndDrain(t *testing.T) {
	gate := make(chan struct{})
	mgr := serving.NewManager(serving.Config{
		MaxInFlight: 2,
		OnExecute:   func(string) { <-gate },
	})
	t.Cleanup(mgr.Close)
	g, err := stopandstare.GeneratePowerLaw(400, 2000, 2.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddTenant("solo", serving.TenantConfig{
		Graph: g, Model: stopandstare.IC,
		Session: stopandstare.SessionOptions{Seed: 7, Workers: 2},
	}); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: serving.NewServer(mgr, serving.ServerConfig{}).Handler()}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serveAndDrain(hs, ln, 30*time.Second, sig) }()
	url := "http://" + ln.Addr().String()

	// Park one request mid-execution.
	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/maximize", "application/json",
			strings.NewReader(`{"k":5,"epsilon":0.35}`))
		if err != nil {
			held <- -1
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Stats().InFlight < 1 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}

	// Deliver the "signal": shutdown starts, the listener closes, but
	// serveAndDrain keeps waiting on the held request.
	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		t.Fatalf("serveAndDrain returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request finished with %d during drain", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("serveAndDrain: %v", err)
	}
	// The listener is gone: new connections are refused.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}
