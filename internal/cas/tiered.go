package cas

// Tiered layers a fast hot store over a larger cold one — a fleet
// worker's local cache over the artifact server it audits from. Reads
// check hot first and promote cold hits; writes land in both so the
// cold tier is always complete (it is the tier of record) while the
// hot tier soaks up re-reads.
type Tiered struct {
	Hot  Store
	Cold Store
}

// Put writes the chunk to the cold tier of record, then mirrors it
// into the hot tier (best effort — a hot-tier failure does not lose
// data).
func (t *Tiered) Put(sha string, data []byte) error {
	if err := t.Cold.Put(sha, data); err != nil {
		return err
	}
	_ = t.Hot.Put(sha, data)
	return nil
}

// Get reads from the hot tier, falling back to cold and promoting the
// chunk on a cold hit.
func (t *Tiered) Get(sha string) ([]byte, error) {
	if data, err := t.Hot.Get(sha); err == nil {
		return data, nil
	}
	data, err := t.Cold.Get(sha)
	if err != nil {
		return nil, err
	}
	_ = t.Hot.Put(sha, data)
	return data, nil
}
