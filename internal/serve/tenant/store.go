package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
)

// usageFileVersion tags the on-disk schema; bump it when Usage changes
// incompatibly and old files silently degrade to empty usage.
const usageFileVersion = 1

// usageFile is the persisted form. Unlike the tuner cache there is no
// host/GOMAXPROCS provenance: usage describes tenants, not machines,
// so a usage file stays valid when the fleet moves hosts.
type usageFile struct {
	Version int              `json:"version"`
	Tenants map[string]Usage `json:"tenants"`
}

// readUsageFile parses path; an unreadable file decodes as nil.
func readUsageFile(path string) (usageFile, bool) {
	b, _ := os.ReadFile(path)
	return decodeUsage(b)
}

// decodeUsage parses usage-file contents. ok is false — and the usage
// empty — for any defect: no file (nil), corrupt JSON, or a version
// this build does not speak. A broken usage file must never stop a
// server from booting.
func decodeUsage(b []byte) (usageFile, bool) {
	var f usageFile
	if json.Unmarshal(b, &f) != nil || f.Version != usageFileVersion || f.Tenants == nil {
		return usageFile{}, false
	}
	return f, true
}

// restore seeds the live counters from the usage file, so cumulative
// usage is monotone across restarts. Persisted tenants unknown to the
// config get runtime slots (weight 1, no limits): their history must
// survive the next Save even if they never reappear.
func (m *Meter) restore() {
	f, ok := readUsageFile(m.file)
	if !ok {
		return
	}
	m.mu.Lock()
	for id, base := range f.Tenants {
		if ValidateID(id) != nil {
			continue // never let a corrupt-but-parseable file smuggle in a bad ID
		}
		u := m.tenants[id]
		if u == nil {
			u = &usage{spec: Spec{Weight: 1}}
			m.tenants[id] = u
		}
		u.requests.Store(base.Requests)
		u.images.Store(base.Images)
		u.shed.Store(base.Shed)
		u.quotaRejected.Store(base.QuotaRejected)
		u.modelMicros.Store(int64(base.ModelSeconds * 1e6))
	}
	m.mu.Unlock()
}

// Save persists current usage through durable.Update if anything
// changed since the last save, and reports whether it wrote. Under the
// update's lock it merges with the file: tenants this meter knows win
// (our counters already include the restored baseline), tenants only
// on disk are kept. A failed save leaves the meter dirty, so the next
// Save retries even if no new traffic arrives.
func (m *Meter) Save() (bool, error) {
	if m.file == "" || !m.dirty.Swap(false) {
		return false, nil
	}
	err := os.MkdirAll(filepath.Dir(m.file), 0o755)
	if err == nil {
		err = durable.Update(m.file, m.merge)
	}
	if err != nil {
		m.dirty.Store(true)
		return false, fmt.Errorf("tenant: saving usage file: %w", err)
	}
	return true, nil
}

// merge is Save's update callback: the on-disk usage overlaid with this
// meter's non-zero counters. m.mu is held only for the snapshot, never
// across the file I/O around it, so admission never waits on an fsync.
func (m *Meter) merge(old []byte) ([]byte, error) {
	merged, ok := decodeUsage(old)
	if !ok {
		merged = usageFile{Tenants: make(map[string]Usage)}
	}
	merged.Version = usageFileVersion
	m.mu.RLock()
	for id, u := range m.tenants {
		s := u.snap()
		s.Weight = 0 // weight is config, not usage; don't persist it
		if s == (Usage{}) {
			continue
		}
		merged.Tenants[id] = s
	}
	m.mu.RUnlock()
	b, err := json.MarshalIndent(merged, "", "  ")
	return append(b, '\n'), err
}

// saveLoop is the background autosaver: one Save per interval while
// traffic keeps the meter dirty, and a final Save at Close.
func (m *Meter) saveLoop(interval time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.Save() // best effort; the next tick retries
		case <-m.stop:
			return
		}
	}
}

// Close stops the autosaver and writes a final snapshot. Safe to call
// more than once; only the first call saves (and reports any error).
func (m *Meter) Close() error {
	var err error
	m.once.Do(func() {
		close(m.stop)
		m.wg.Wait()
		_, err = m.Save()
	})
	return err
}
