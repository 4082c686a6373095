// Package tenant is the per-tenant metering, quota and fairness
// substrate of the serving tier. The serving stack above it (serve,
// httpapi, cluster) threads a tenant identity — an opaque string riding
// each Request — through every admission decision, and this package
// answers the two questions a multi-tenant server must answer that a
// single-tenant one never faces: "who used what" (metering) and "who
// may use more right now" (quotas).
//
// The design transplants the metered-usage pipeline of Google's
// ubbagent (usage events flow through an aggregator into persistence
// and reporting, behind a strictly validated config) onto the serve
// substrate:
//
//	Request ──► Admit (token bucket over the live window)
//	        ──► RecordAdmitted / RecordShed (atomic counters)
//	        ──► ChargeModelSeconds (measured per-batch cost share)
//	        ──► Snapshot (stats surface) + usage file (periodic, atomic)
//
// Identity: a tenant ID is any string of at most MaxIDLen bytes with
// no control characters; the empty string is the anonymous default
// tenant every unlabelled request rides as. IDs are validated at every
// boundary (config, wire decode, submission), so the hot path can
// treat them as clean map keys.
//
// Enforcement: configured tenants may carry a requests-per-second rate
// and a model-seconds budget per accounting window. Both are enforced
// as token buckets refilled by the window roll: the window aggregator
// is the refill source, so a tenant that exhausts its budget is
// rejected with a typed *QuotaError until the window turns over.
// errors.Is(err, ErrQuotaExceeded) is deliberately DISTINCT from the
// serving tier's ErrOverloaded: overload is a property of the server
// (capacity frees up, retrying elsewhere helps), quota is a property
// of the tenant (every member meters the same identity, so retrying a
// quota rejection on another cluster member is a correctness bug).
//
// Persistence follows the tuner-cache contract (internal/blas): a
// versioned JSON usage file written as a locked merge
// (durable.Update), where a missing, corrupt or foreign-versioned file
// degrades to empty usage and never to an error. Unlike the tuner
// cache there is no host provenance: usage is a statement about
// tenants, not machines, so a usage file follows its tenants across
// hosts.
package tenant

import (
	"errors"
	"fmt"
	"time"
)

// MaxIDLen is the byte-length cap on a tenant ID, enforced at every
// boundary (config validation, DLW1 decode, submission).
const MaxIDLen = 256

// Metering defaults.
const (
	// DefaultWindow is the quota accounting window a zero Config.Window
	// resolves to.
	DefaultWindow = time.Second
	// DefaultSnapshotInterval is the usage-file autosave cadence a zero
	// Config.SnapshotInterval resolves to.
	DefaultSnapshotInterval = 5 * time.Second
)

// ValidateID accepts a tenant identity: at most MaxIDLen bytes, no
// control characters (which would let an ID corrupt log lines, HTTP
// headers and the JSON usage file it is keyed by). The empty string is
// valid — it is the anonymous default tenant.
func ValidateID(id string) error {
	if len(id) > MaxIDLen {
		return fmt.Errorf("tenant: id of %d bytes exceeds the %d byte cap", len(id), MaxIDLen)
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c < 0x20 || c == 0x7f {
			return fmt.Errorf("tenant: id %q contains control character 0x%02x", id, c)
		}
	}
	return nil
}

// Spec is one configured tenant: its fair-share weight and quota
// limits. The zero value is a default tenant — weight 1, no limits.
type Spec struct {
	// Weight is the tenant's deficit-round-robin share of a pool's
	// intake (and of the queue capacity); values < 1 resolve to 1.
	Weight int
	// RequestsPerSec caps the tenant's admitted request rate, enforced
	// per accounting window (budget = rate × window); 0 is unlimited.
	RequestsPerSec float64
	// ModelSecondsPerWindow caps the measured model execution time the
	// tenant may consume per accounting window; 0 is unlimited.
	ModelSecondsPerWindow float64
}

// Config configures a Meter. The zero value meters the anonymous
// tenant with no limits and no persistence.
type Config struct {
	// Window is the quota accounting window; 0 resolves to
	// DefaultWindow.
	Window time.Duration
	// SnapshotInterval is the autosave cadence of the usage file; 0
	// resolves to DefaultSnapshotInterval, < 0 disables the background
	// saver (Save/Close still persist on demand).
	SnapshotInterval time.Duration
	// UsageFile persists cumulative per-tenant usage across restarts
	// (versioned JSON, locked merge via durable.Update); empty disables
	// persistence.
	UsageFile string
	// Tenants maps tenant IDs to their specs. Unlisted tenants are
	// metered with weight 1 and no limits.
	Tenants map[string]Spec
}

// ErrQuotaExceeded is the errors.Is sentinel for quota rejections.
// It is distinct from the serving tier's overload sentinel on purpose:
// a QuotaError never matches ErrOverloaded, so overload-retry paths
// (client backoff loops, the cluster's next-best-member retry) cannot
// mistake a tenant verdict for a capacity verdict.
var ErrQuotaExceeded = errors.New("tenant: quota exceeded")

// QuotaError reports a quota rejection: which tenant, which resource
// bucket ran dry, and when the window turns over.
type QuotaError struct {
	// Tenant is the rejected identity ("" = the anonymous default).
	Tenant string
	// Resource names the exhausted budget: "requests" or
	// "model-seconds".
	Resource string
	// RetryAfter is the time until the current accounting window ends
	// and the budget refills.
	RetryAfter time.Duration
}

// Error renders the rejection with its refill hint.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant: %q exceeded its %s quota, window refills in %v",
		e.Tenant, e.Resource, e.RetryAfter.Round(time.Millisecond))
}

// Is matches the ErrQuotaExceeded sentinel — and only that sentinel,
// so quota and overload stay distinct under errors.Is across every
// transport.
func (e *QuotaError) Is(target error) bool { return target == ErrQuotaExceeded }
