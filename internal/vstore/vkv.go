package vstore

import (
	"sort"

	"orochi/internal/lang"
)

// VersionedKV is the audit-time versioned key-value store (§4.5, §4.7):
// a map from key to (seq, value) pairs. kv.Get(key, seq) returns, of all
// entries in the store's operation log, the KvSet to key with the
// highest sequence number strictly less than seq — which is exactly what
// replaying the log prefix OL[1..seq-1] against an abstract key-value
// store and then issuing get(key) would return (§A.7).
//
// Concurrency contract: the build phase (LoadInitial, AddSet) must run
// on a single goroutine; after it completes, Get/Final/Keys are pure
// reads and safe from any number of goroutines — the parallel verifier
// consults the store from every re-execution worker. The build phase
// marks every stored array shared (lang.CloneValue), so the workers
// that read one only read its mark.
type VersionedKV struct {
	m map[string][]kvVersion
}

type kvVersion struct {
	seq int64
	val lang.Value
}

// NewVersionedKV returns an empty versioned KV store.
func NewVersionedKV() *VersionedKV {
	return &VersionedKV{m: make(map[string][]kvVersion)}
}

// LoadInitial installs a pre-audit key value at sequence 0.
func (kv *VersionedKV) LoadInitial(key string, val lang.Value) {
	kv.m[key] = append(kv.m[key], kvVersion{seq: 0, val: lang.CloneValue(val)})
}

// AddSet records the KvSet at sequence seq during the build pass. Calls
// must be made in increasing seq order per key (the log is scanned in
// order, so this holds).
func (kv *VersionedKV) AddSet(key string, seq int64, val lang.Value) {
	kv.m[key] = append(kv.m[key], kvVersion{seq: seq, val: lang.CloneValue(val)})
}

// Get returns the value of key as of (strictly before) sequence seq, or
// nil if the key was never set before seq.
func (kv *VersionedKV) Get(key string, seq int64) lang.Value {
	vers := kv.m[key]
	// Find the last version with version.seq < seq.
	i := sort.Search(len(vers), func(i int) bool { return vers[i].seq >= seq })
	if i == 0 {
		return nil
	}
	return vers[i-1].val
}

// Final returns the latest value per key (the permanent state carried to
// the next audit period) together with the key list, sorted.
func (kv *VersionedKV) Final() map[string]lang.Value {
	out := make(map[string]lang.Value, len(kv.m))
	for k, vers := range kv.m {
		if len(vers) > 0 {
			out[k] = vers[len(vers)-1].val
		}
	}
	return out
}

// Keys returns all keys, sorted (for deterministic iteration).
func (kv *VersionedKV) Keys() []string {
	keys := make([]string, 0, len(kv.m))
	for k := range kv.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
