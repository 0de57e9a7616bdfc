package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"twodprof/internal/wal"
)

// The crash-recovery tests need a daemon they can SIGKILL — a process,
// not a goroutine. The test binary re-execs itself: with the helper
// variable set, TestMain boots a durable server instead of running
// tests and blocks until killed.
const (
	helperEnv   = "TWODPROF_CRASH_HELPER"
	helperData  = "TWODPROF_CRASH_DATA_DIR"
	helperAddrF = "TWODPROF_CRASH_ADDR_FILE"
)

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "" {
		os.Exit(m.Run())
	}
	cfg := testConfig()
	cfg.DataDir = os.Getenv(helperData)
	cfg.Fsync = wal.SyncPolicy{Mode: wal.SyncAlways}
	srv, err := NewServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash helper:", err)
		os.Exit(1)
	}
	if _, err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "crash helper:", err)
		os.Exit(1)
	}
	// Publish the bound address atomically: write-temp + rename, so the
	// parent never reads a half-written file.
	addrFile := os.Getenv(helperAddrF)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(srv.Addr()), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "crash helper:", err)
		os.Exit(1)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fmt.Fprintln(os.Stderr, "crash helper:", err)
		os.Exit(1)
	}
	select {} // block until SIGKILLed by the parent
}

// crashDaemon is one helper-process daemon instance under the parent's
// control.
type crashDaemon struct {
	t    *testing.T
	cmd  *exec.Cmd
	addr string
}

// startCrashDaemon re-execs the test binary as a durable daemon over
// dataDir and waits for its address.
func startCrashDaemon(t *testing.T, dataDir string) *crashDaemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(exe, "-test.run=NONE")
	cmd.Env = append(os.Environ(),
		helperEnv+"=1",
		helperData+"="+dataDir,
		helperAddrF+"="+addrFile,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &crashDaemon{t: t, cmd: cmd}
	t.Cleanup(func() { d.kill() })

	deadline := time.Now().Add(15 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			d.addr = string(raw)
			return d
		}
		if time.Now().After(deadline) {
			d.kill()
			t.Fatal("crash helper never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// kill SIGKILLs the daemon — no drain, no flush, the crash under test.
func (d *crashDaemon) kill() {
	if d.cmd.Process != nil {
		_ = d.cmd.Process.Kill()
		_, _ = d.cmd.Process.Wait()
	}
}

func (d *crashDaemon) get(path string) (int, []byte) {
	d.t.Helper()
	resp, err := http.Get("http://" + d.addr + path)
	if err != nil {
		d.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatal(err)
	}
	return resp.StatusCode, body
}

func (d *crashDaemon) sessions() []SessionInfo {
	d.t.Helper()
	code, body := d.get("/v1/sessions")
	if code != 200 {
		d.t.Fatalf("/v1/sessions: %d: %s", code, body)
	}
	var infos []SessionInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		d.t.Fatal(err)
	}
	return infos
}

// TestCrashRecoveryFinished: SIGKILL the daemon after a session
// finished; the restarted daemon serves the exact same report bytes
// from the WAL.
func TestCrashRecoveryFinished(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e test")
	}
	dataDir := t.TempDir()
	d := startCrashDaemon(t, dataDir)

	raw := kernelTrace(t, "fsm", "train", false)
	resp, err := http.Post("http://"+d.addr+"/v1/ingest?session=crashed&kernel=fsm",
		"application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}
	code, want := d.get("/v1/report?session=crashed")
	if code != 200 {
		t.Fatalf("report: %d: %s", code, want)
	}

	d.kill()

	d2 := startCrashDaemon(t, dataDir)
	info := findSession(t, d2.sessions(), "crashed")
	if !info.Recovered || info.State != "done" {
		t.Errorf("recovered session: state=%q recovered=%v, want done/true", info.State, info.Recovered)
	}
	code, got := d2.get("/v1/report?session=crashed")
	if code != 200 {
		t.Fatalf("report after crash: %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("report after kill -9 is not byte-identical to the pre-crash report")
	}
}

// TestCrashRecoveryMidStream: SIGKILL the daemon while a client is
// streaming. The restarted daemon replays the durable event prefix; its
// report must be byte-identical to an offline profiler over exactly the
// events the recovery reports having salvaged.
func TestCrashRecoveryMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec e2e test")
	}
	dataDir := t.TempDir()
	d := startCrashDaemon(t, dataDir)

	raw := kernelTrace(t, "typesum", "train", false)
	events := traceEvents(t, raw)

	// Stream roughly half the trace bytes and keep the connection open
	// so the session is mid-flight when the daemon dies.
	pr, pw := io.Pipe()
	postDone := make(chan struct{})
	go func() {
		defer close(postDone)
		resp, err := http.Post("http://"+d.addr+"/v1/ingest?session=torn",
			"application/octet-stream", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	if _, err := pw.Write(raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	// Wait until the daemon has decoded (and therefore WAL-logged) a
	// healthy chunk of the stream.
	deadline := time.Now().Add(15 * time.Second)
	for {
		infos := d.sessions()
		if len(infos) > 0 && findSession(t, infos, "torn").Events > 10000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never ingested the partial stream")
		}
		time.Sleep(10 * time.Millisecond)
	}

	d.kill()
	pw.Close()
	<-postDone

	d2 := startCrashDaemon(t, dataDir)
	info := findSession(t, d2.sessions(), "torn")
	if info.State != "failed" || !info.Recovered {
		t.Errorf("recovered session: state=%q recovered=%v, want failed/true", info.State, info.Recovered)
	}
	salvaged := info.Events
	if salvaged <= 0 || salvaged > int64(len(events)) {
		t.Fatalf("recovered event count %d out of range (trace has %d)", salvaged, len(events))
	}

	code, got := d2.get("/v1/report?session=torn")
	if code != 200 {
		t.Fatalf("report after mid-stream crash: %d: %s", code, got)
	}
	if want := referenceReport(t, testConfig(), events[:salvaged]); !bytes.Equal(got, want) {
		t.Errorf("recovered report differs from an offline run over the %d salvaged events", salvaged)
	}
}
