package twodprof

// CLI integration tests: build each command and exercise its basic
// invocations end to end. Skipped in -short mode (they shell out to the
// Go toolchain).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmds compiles every command once per test run into a shared
// temp dir (not t.TempDir(), which is removed when the building test
// ends while later tests still need the binary).
var (
	cmdBin    = map[string]string{}
	cmdBinDir string
)

func buildCmd(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	if bin, ok := cmdBin[name]; ok {
		return bin
	}
	if cmdBinDir == "" {
		dir, err := os.MkdirTemp("", "twodprof-cli")
		if err != nil {
			t.Fatal(err)
		}
		cmdBinDir = dir
	}
	bin := filepath.Join(cmdBinDir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	cmdBin[name] = bin
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIExperimentsList(t *testing.T) {
	bin := buildCmd(t, "experiments")
	out := runCmd(t, bin, "-list")
	for _, id := range []string{"fig2", "fig10", "tab4", "ext-ifconv"} {
		if !strings.Contains(out, id) {
			t.Errorf("-list missing %s:\n%s", id, out)
		}
	}
	out = runCmd(t, bin, "-run", "fig2")
	if !strings.Contains(out, "break-even") {
		t.Errorf("fig2 output missing break-even:\n%s", out)
	}
}

func TestCLIVmasm(t *testing.T) {
	bin := buildCmd(t, "vmasm")
	out := runCmd(t, bin, "kernels")
	if !strings.Contains(out, "lzchain") {
		t.Errorf("kernels listing:\n%s", out)
	}
	src := filepath.Join(t.TempDir(), "p.s")
	if err := os.WriteFile(src, []byte("li r1, 41\naddi r1, r1, 1\nout r1\nhalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runCmd(t, bin, "run", "-f", src)
	if !strings.Contains(out, "out[0]   : 42") {
		t.Errorf("vmasm run output:\n%s", out)
	}
	out = runCmd(t, bin, "check", "-f", src)
	if !strings.Contains(out, "4 instructions") {
		t.Errorf("vmasm check output:\n%s", out)
	}
	out = runCmd(t, bin, "dis", "-f", src)
	if !strings.Contains(out, "li r1, 41") {
		t.Errorf("vmasm dis output:\n%s", out)
	}
	out = runCmd(t, bin, "kernels", "-kernel", "typesum")
	if !strings.Contains(out, "typecheck:") {
		t.Errorf("kernel disassembly missing label:\n%s", out)
	}
}

func TestCLITraceRoundTrip(t *testing.T) {
	tg := buildCmd(t, "tracegen")
	dir := t.TempDir()
	plain := filepath.Join(dir, "t.btr")
	gz := filepath.Join(dir, "t.btr.gz")

	out := runCmd(t, tg, "gen", "-kernel", "fsm", "-input", "train", "-o", plain)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("gen output:\n%s", out)
	}
	runCmd(t, tg, "gen", "-kernel", "fsm", "-input", "train", "-z", "-o", gz)

	for _, f := range []string{plain, gz} {
		info := runCmd(t, tg, "info", "-i", f)
		if !strings.Contains(info, "static sites  : 6") {
			t.Errorf("info on %s:\n%s", f, info)
		}
	}
	replay := runCmd(t, tg, "replay", "-i", plain, "-predictor", "gshare-4KB")
	if !strings.Contains(replay, "accuracy") {
		t.Errorf("replay output:\n%s", replay)
	}

	// The compressed file must be materially smaller.
	sp, _ := os.Stat(plain)
	sg, _ := os.Stat(gz)
	if sg.Size() >= sp.Size() {
		t.Errorf("gzip trace not smaller: %d vs %d", sg.Size(), sp.Size())
	}

	// profile2d consumes the trace.
	p2d := buildCmd(t, "profile2d")
	out = runCmd(t, p2d, "-trace", gz, "-slice", "20000", "-execth", "20")
	if !strings.Contains(out, "2D-profiling report") {
		t.Errorf("profile2d trace output:\n%s", out)
	}
}

func TestCLIProfile2dJSON(t *testing.T) {
	p2d := buildCmd(t, "profile2d")
	out := runCmd(t, p2d, "-kernel", "lzchain", "-input", "train", "-json",
		"-slice", "8000", "-execth", "20")
	var rep Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("JSON output did not parse: %v", err)
	}
	if rep.TotalExec == 0 || len(rep.Branches) == 0 {
		t.Fatalf("empty JSON report: %+v", rep)
	}
}

// TestCLIProfile2dRejectsNonFiniteThresholds: a NaN or infinite
// threshold must fail before any profiling, naming the field, and print
// no report (it used to surface only when the JSON report was rendered,
// or to be dropped in favour of the default).
func TestCLIProfile2dRejectsNonFiniteThresholds(t *testing.T) {
	p2d := buildCmd(t, "profile2d")
	for _, tc := range []struct{ flag, value, field string }{
		{"-meanth", "NaN", "MeanTh"},
		{"-meanth", "Inf", "MeanTh"},
		{"-stdth", "NaN", "StdTh"},
		{"-stdth", "Inf", "StdTh"},
		{"-pamth", "NaN", "PAMTh"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(p2d, "-kernel", "fsm", "-input", "train", "-json", tc.flag, tc.value)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("%s %s: exited 0\n%s", tc.flag, tc.value, stdout.Bytes())
			continue
		}
		if !strings.Contains(stderr.String(), tc.field) {
			t.Errorf("%s %s: error does not name %s: %s", tc.flag, tc.value, tc.field, stderr.Bytes())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s: printed a report:\n%s", tc.flag, tc.value, stdout.Bytes())
		}
	}
}

// TestCLIProfiledEndToEnd drives the online path with the real
// binaries: profiled serves, tracegen streams a generated trace at it
// with -post (writing the same trace to disk), and the daemon's
// /v1/report must match profile2d -json reading that trace from stdin
// byte for byte. Finally SIGINT must shut the daemon down cleanly.
func TestCLIProfiledEndToEnd(t *testing.T) {
	pd := buildCmd(t, "profiled")
	tg := buildCmd(t, "tracegen")
	p2d := buildCmd(t, "profile2d")
	traceFile := filepath.Join(t.TempDir(), "fsm.btr")

	daemon := exec.Command(pd, "-addr", "127.0.0.1:0")
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer daemon.Process.Kill()
	// First line: "profiled: listening on 127.0.0.1:PORT (...)"
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("profiled produced no output: %v", sc.Err())
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 4 {
		t.Fatalf("unexpected startup line %q", sc.Text())
	}
	addr := fields[3]
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	out := runCmd(t, tg, "gen", "-kernel", "fsm", "-input", "train",
		"-o", traceFile, "-post", "http://"+addr+"/v1/ingest?session=cli")
	if !strings.Contains(out, "posted") || !strings.Contains(out, "HTTP 200") {
		t.Fatalf("tracegen -post output:\n%s", out)
	}

	resp, err := http.Get("http://" + addr + "/v1/report?session=cli")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d err %v", resp.StatusCode, err)
	}

	offline := exec.Command(p2d, "-trace", "-", "-json")
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	offline.Stdin = f
	want, err := offline.Output()
	if err != nil {
		t.Fatalf("profile2d -trace -: %v", err)
	}
	if !bytes.Equal(want, served) {
		t.Errorf("daemon report (%d bytes) differs from offline profile2d on stdin (%d bytes)",
			len(served), len(want))
	}

	if err := daemon.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Errorf("profiled did not exit cleanly on SIGINT: %v", err)
	}
}

func TestCLIPredsim(t *testing.T) {
	ps := buildCmd(t, "predsim")
	out := runCmd(t, ps, "-kernel", "bsearch", "-input", "train",
		"-predictors", "gshare-4KB,bimodal,always-taken")
	for _, name := range []string{"gshare-4KB", "bimodal", "always-taken"} {
		if !strings.Contains(out, name) {
			t.Errorf("predsim missing %s:\n%s", name, out)
		}
	}
}
