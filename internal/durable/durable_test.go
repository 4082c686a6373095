package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The cross-process tests re-exec this test binary as a child; the
// environment selects the child's role before any test runs.
const (
	roleEnv = "DURABLE_TEST_ROLE"
	pathEnv = "DURABLE_TEST_PATH"

	increments = 50 // Updates per incrementing writer
)

func TestMain(m *testing.M) {
	path := os.Getenv(pathEnv)
	switch os.Getenv(roleEnv) {
	case "increment":
		for range increments {
			if err := Update(path, increment); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		os.Exit(0)
	case "churn":
		for i := 0; ; i++ {
			if err := Update(path, func([]byte) ([]byte, error) { return payloads[i%2], nil }); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	os.Exit(m.Run())
}

// increment adds one to a decimal counter file (missing reads as 0).
func increment(old []byte) ([]byte, error) {
	n := 0
	if old != nil {
		var err error
		if n, err = strconv.Atoi(string(old)); err != nil {
			return nil, err
		}
	}
	return []byte(strconv.Itoa(n + 1)), nil
}

// payloads are the churn child's alternating file contents: valid JSON,
// large enough that a torn write would be caught mid-file.
var payloads = [2][]byte{churnPayload("a"), churnPayload("b")}

func churnPayload(fill string) []byte {
	b, _ := json.Marshal(map[string]string{"gen": fill, "pad": strings.Repeat(fill, 64<<10)})
	return b
}

func child(role, path string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), roleEnv+"="+role, pathEnv+"="+path)
	cmd.Stderr = os.Stderr
	return cmd
}

func TestUpdateMissingFileReadsNil(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	err := Update(path, func(old []byte) ([]byte, error) {
		if old != nil {
			t.Errorf("missing file reached update as %q, want nil", old)
		}
		return []byte("v1"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "v1" {
		t.Fatalf("file = %q, want v1", got)
	}
}

func TestUpdateErrorLeavesFileUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := os.WriteFile(path, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Update(path, func(old []byte) ([]byte, error) {
		if string(old) != "keep" {
			t.Errorf("update saw %q, want the current contents", old)
		}
		return []byte("lost"), boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Update = %v, want the callback's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "keep" {
		t.Fatalf("file = %q after a failed update, want it untouched", got)
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Fatalf("failed update left %d entries in the directory, want 1", len(names))
	}
}

// TestUpdateCrossProcess runs four writer processes that each
// increment one counter file 50 times: any lost update shows as a
// final count below 200, so the lock must hold between processes.
func TestUpdateCrossProcess(t *testing.T) {
	const writers = 4
	path := filepath.Join(t.TempDir(), "counter")
	var wg sync.WaitGroup
	for range writers {
		cmd := child("increment", path)
		if err := cmd.Start(); err != nil {
			t.Error(err)
			break // wait for the writers already started
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cmd.Wait(); err != nil {
				t.Errorf("writer: %v", err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := strconv.Itoa(writers * increments); string(got) != want {
		t.Fatalf("counter = %s, want %s", got, want)
	}
}

// TestUpdateKillMidSave SIGKILLs a child that rewrites the file in a
// tight loop: whenever it dies, the file must be one complete payload.
func TestUpdateKillMidSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	cmd := child("churn", path)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("churn child never wrote the file")
		}
	}
	time.Sleep(rand.N(30 * time.Millisecond))
	if err := cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmd.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payloads[0]) && !bytes.Equal(got, payloads[1]) {
		t.Fatalf("file after kill -9 is %d bytes and not a written payload", len(got))
	}
}
