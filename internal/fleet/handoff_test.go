package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"orochi/internal/apps"
	"orochi/internal/cas"
	"orochi/internal/encio"
	"orochi/internal/epoch"
	"orochi/internal/lang"
	"orochi/internal/server"
	"orochi/internal/trace"
)

// wireTap is the workers' http.RoundTripper in hand-off tests: it
// records every verdict post, every init response, and which chunk
// digests were asked for over the wire.
type wireTap struct {
	mu       sync.Mutex
	verdicts []tappedVerdict
	inits    [][]cas.Ref
	fetched  map[string]int // chunk digest -> GETs
}

type tappedVerdict struct {
	post       *VerdictPost
	chunkBytes int // payload bytes of the chunk frames
}

func (w *wireTap) RoundTrip(req *http.Request) (*http.Response, error) {
	path := req.URL.Path
	if strings.HasSuffix(path, "/verdict") {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		p, chunks, err := DecodeVerdict(body)
		if err != nil {
			return nil, fmt.Errorf("worker posted an undecodable verdict: %w", err)
		}
		n := 0
		for _, c := range chunks {
			n += len(c)
		}
		w.mu.Lock()
		w.verdicts = append(w.verdicts, tappedVerdict{post: p, chunkBytes: n})
		w.mu.Unlock()
	}
	if i := strings.Index(path, "/chunk/"); i >= 0 && req.Method == http.MethodGet {
		w.mu.Lock()
		if w.fetched == nil {
			w.fetched = make(map[string]int)
		}
		w.fetched[path[i+len("/chunk/"):]]++
		w.mu.Unlock()
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && strings.HasSuffix(path, "/init") && resp.StatusCode == http.StatusOK {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var ir InitResponse
		if jerr := json.Unmarshal(body, &ir); jerr != nil {
			return nil, fmt.Errorf("coordinator answered an undecodable init: %w", jerr)
		}
		w.mu.Lock()
		w.inits = append(w.inits, ir.Snapshot)
		w.mu.Unlock()
	}
	return resp, err
}

// sealQuietChain seals a wiki chain whose state stops changing after
// the first request: every request views the same page, so the first
// fills the render cache and the rest only read. Epoch 2 onward ends in
// exactly the state it started from.
func sealQuietChain(t *testing.T, dir string) *lang.Program {
	t.Helper()
	app := apps.Wiki()
	prog := app.Compile()
	srv := server.New(prog, server.Options{Record: true})
	if err := srv.Setup(app.Schema); err != nil {
		t.Fatal(err)
	}
	// Bodies are unrepetitive so the snapshot cuts into many chunks.
	rng := rand.New(rand.NewSource(5))
	var seed []string
	for i := 0; i < 80; i++ {
		body := make([]byte, 1024)
		rng.Read(body)
		seed = append(seed, fmt.Sprintf("INSERT INTO pages (title, body, touched) VALUES ('Page_%03d', '%x', %d)", i, body, 1000+i))
	}
	if err := srv.Setup(seed); err != nil {
		t.Fatal(err)
	}
	mgr, err := epoch.StartManager(dir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: 20})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		reqs := make([]trace.Input, 12)
		for i := range reqs {
			reqs[i] = trace.Input{Script: "view", Get: map[string]string{"page": "Page_007"}}
		}
		srv.ServeAllContext(context.Background(), reqs, 2)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return prog
}

// runTappedWorker audits the whole chain behind url with one worker
// whose traffic goes through a wireTap.
func runTappedWorker(t *testing.T, prog *lang.Program, url string) *wireTap {
	t.Helper()
	tap := &wireTap{}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_, err := RunWorker(ctx, prog, WorkerOptions{
		Coordinator: url,
		Name:        "tapped",
		Client:      &http.Client{Transport: tap, Timeout: 60 * time.Second},
		InitPoll:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tap
}

// TestUnchangedSnapshotPostsNoChunks: when an epoch leaves the state as
// it found it, the verdict ships the ref list and not one chunk byte,
// the coordinator counts every ref as reused, and the checkpoint it
// writes names the same chunks as the one before.
func TestUnchangedSnapshotPostsNoChunks(t *testing.T) {
	dir := t.TempDir()
	prog := sealQuietChain(t, dir)
	coord, ts := startFleet(t, dir, CoordinatorOptions{})
	tap := runTappedWorker(t, prog, ts.URL)
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !coord.ChainAccepted() || len(tap.verdicts) < 3 {
		t.Fatalf("quiet chain: accepted=%v after %d verdicts: %+v", coord.ChainAccepted(), len(tap.verdicts), coord.Verdicts())
	}
	first := tap.verdicts[0]
	if len(first.post.Shipped) == 0 || first.chunkBytes == 0 {
		t.Fatalf("epoch 1 filled the render cache, its post must ship the changed chunks: %+v", first.post.Shipped)
	}
	if len(first.post.Shipped) >= len(first.post.FinalSnapshot) {
		t.Fatalf("epoch 1 shipped all %d chunks though most of the state is the manifest's own init", len(first.post.FinalSnapshot))
	}
	for _, v := range tap.verdicts[1:] {
		if len(v.post.Shipped) != 0 || v.chunkBytes != 0 {
			t.Fatalf("epoch %d changed nothing but its post ships %d chunks (%d bytes)", v.post.Epoch, len(v.post.Shipped), v.chunkBytes)
		}
		if !slices.Equal(v.post.FinalSnapshot, first.post.FinalSnapshot) {
			t.Fatalf("epoch %d: an unchanged state cut to a different ref list", v.post.Epoch)
		}
	}
	st := coord.Stats()
	if want := int64(len(first.post.Shipped)); st.SnapshotChunksPosted != want {
		t.Fatalf("SnapshotChunksPosted = %d, want the %d chunks epoch 1 shipped", st.SnapshotChunksPosted, want)
	}
	if st.SnapshotChunksReused == 0 {
		t.Fatalf("no snapshot chunk counted as reused: %+v", st)
	}
	for n := int64(1); n <= int64(len(tap.verdicts)); n++ {
		refs, err := epoch.LoadCheckpointRefs(dir, n)
		if err != nil || !slices.Equal(refs, first.post.FinalSnapshot) {
			t.Fatalf("checkpoint %d is not the posted ref list: %v", n, err)
		}
	}
	if _, err := epoch.LoadCheckpoint(dir, 2); err != nil {
		t.Fatalf("the coordinator's checkpoint does not load: %v", err)
	}
}

// TestWorkerKeepsItsOwnSnapshot: a worker that audited epoch n holds
// every chunk of epoch n+1's initial state — it cut them itself — so
// the init hand-off moves a ref list and no chunk.
func TestWorkerKeepsItsOwnSnapshot(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	inManifest := make(map[string]bool)
	for _, s := range sealed {
		for _, r := range s.Manifest.ChunkRefs() {
			inManifest[r.SHA256] = true
		}
	}
	coord, ts := startFleet(t, dir, CoordinatorOptions{})
	tap := runTappedWorker(t, prog, ts.URL)
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !coord.ChainAccepted() || len(tap.inits) != len(sealed)-1 {
		t.Fatalf("accepted=%v, %d init hand-offs for %d epochs", coord.ChainAccepted(), len(tap.inits), len(sealed))
	}
	changed := 0
	for i, refs := range tap.inits {
		if !slices.Equal(refs, tap.verdicts[i].post.FinalSnapshot) {
			t.Fatalf("epoch %d was handed something other than epoch %d's posted snapshot", i+2, i+1)
		}
		changed += len(tap.verdicts[i].post.Shipped)
		for _, r := range refs {
			// A chunk a manifest also pins is fetched as an artifact.
			if tap.fetched[r.SHA256] > 0 && !inManifest[r.SHA256] {
				t.Fatalf("epoch %d's initial-state chunk %.12s crossed the wire to the worker that produced it", i+2, r.SHA256)
			}
		}
	}
	if changed == 0 {
		t.Fatal("the workload never changed state; the test proves nothing")
	}
}

// TestVerdictSnapshotMustResolve: a post whose chunk bytes are not what
// their ref names, or whose ref list names a chunk nobody shipped and
// the store lacks, is refused 400 and decides nothing — and leaves
// nothing behind in the store; the same lease then takes the honest
// post.
func TestVerdictSnapshotMustResolve(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	coord, ts := startFleet(t, dir, CoordinatorOptions{To: 1})
	l := leaseFor(t, ts.URL, "w", nil)
	honest := honestVerdict(t, prog, dir, l, "w", nil)
	if !honest.Accepted || len(honest.chunks) < 2 {
		t.Fatalf("need an ACCEPT with several chunks: accepted=%v chunks=%d", honest.Accepted, len(honest.chunks))
	}
	store, err := epoch.OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := -1 // a chunk only this snapshot has
	for i, r := range honest.FinalSnapshot {
		if !store.Has(r.SHA256) {
			fresh = i
		}
	}
	if fresh < 0 {
		t.Fatal("the final snapshot shares every chunk with the sealed chain")
	}

	forged := honest
	forged.chunks = slices.Clone(honest.chunks)
	forged.chunks[fresh], err = encio.Gzip([]byte("not the chunk the ref names"))
	if err != nil {
		t.Fatal(err)
	}
	if status, body := postVerdict(t, ts.URL, nil, forged); status != http.StatusBadRequest {
		t.Fatalf("post with a chunk that does not hash to its ref answered %d: %s", status, body)
	}

	partial := honest
	partial.Shipped = slices.Delete(slices.Clone(honest.Shipped), fresh, fresh+1)
	partial.chunks = slices.Delete(slices.Clone(honest.chunks), fresh, fresh+1)
	if status, body := postVerdict(t, ts.URL, nil, partial); status != http.StatusBadRequest {
		t.Fatalf("post whose ref list does not resolve answered %d: %s", status, body)
	}

	empty := honest
	empty.FinalSnapshot, empty.Shipped, empty.chunks = nil, nil, nil
	if status, body := postVerdict(t, ts.URL, nil, empty); status != http.StatusBadRequest {
		t.Fatalf("ACCEPT without a snapshot answered %d: %s", status, body)
	}

	if st := coord.Stats(); st.EpochsDecided != 0 || st.SnapshotChunksPosted != 0 {
		t.Fatalf("a refused post was recorded: %+v", st)
	}
	if store.Has(honest.FinalSnapshot[fresh].SHA256) {
		t.Fatal("a refused chunk reached the chain store")
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints")); !os.IsNotExist(err) {
		t.Fatalf("a refused post wrote a checkpoint: %v", err)
	}
	if status, body := postVerdict(t, ts.URL, nil, honest); status != http.StatusOK {
		t.Fatalf("honest post on the kept lease refused: %d %s", status, body)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := coord.Verdicts(); len(v) != 1 || !v[0].Accepted {
		t.Fatalf("epoch 1 should hold one ACCEPT: %+v", v)
	}
}

// TestVerdictFrameRoundTrip pins the post body's shape: header, then
// one frame per shipped chunk, nothing else — and what DecodeVerdict
// refuses.
func TestVerdictFrameRoundTrip(t *testing.T) {
	p := &VerdictPost{LeaseID: "l", Worker: "w", Epoch: 3, Accepted: true,
		FinalSnapshot: []cas.Ref{{SHA256: "a", Bytes: 1}, {SHA256: "b", Bytes: 2}, {SHA256: "c", Bytes: 3}},
		Shipped:       []int{0, 2}}
	chunks := [][]byte{[]byte("first"), {}}
	body, err := EncodeVerdict(p, chunks)
	if err != nil {
		t.Fatal(err)
	}
	got, gotChunks, err := DecodeVerdict(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || !slices.Equal(got.Shipped, p.Shipped) || !slices.Equal(got.FinalSnapshot, p.FinalSnapshot) ||
		len(gotChunks) != 2 || string(gotChunks[0]) != "first" || len(gotChunks[1]) != 0 {
		t.Fatalf("round trip diverged: %+v %q", got, gotChunks)
	}
	if _, err := EncodeVerdict(p, chunks[:1]); err == nil {
		t.Fatal("EncodeVerdict accepted fewer chunks than the header ships")
	}
	outOfRange, _ := EncodeVerdict(&VerdictPost{FinalSnapshot: p.FinalSnapshot, Shipped: []int{3}}, chunks[:1])
	repeated, _ := EncodeVerdict(&VerdictPost{FinalSnapshot: p.FinalSnapshot, Shipped: []int{1, 1}}, chunks)
	for name, bad := range map[string][]byte{
		"empty":               nil,
		"truncated header":    body[:10],
		"truncated frame":     body[:len(body)-1],
		"trailing bytes":      append(slices.Clone(body), 0),
		"index out of range":  outOfRange,
		"index shipped twice": repeated,
		"header not json":     append([]byte{0, 0, 0, 2}, "{]"...),
	} {
		if _, _, err := DecodeVerdict(bad); err == nil {
			t.Fatalf("%s: DecodeVerdict accepted it", name)
		}
	}
}

// TestCrossCheckComparesRefLists: replicas agree on an ACCEPT only when
// digest and ref list both match — the coordinator decodes neither, so
// a true digest must not vouch for other chunks.
func TestCrossCheckComparesRefLists(t *testing.T) {
	refs := []cas.Ref{{SHA256: "aa", Bytes: 10}, {SHA256: "bb", Bytes: 20}}
	a := &VerdictPost{Accepted: true, SnapshotDigest: "d", FinalSnapshot: refs}
	if !agreeing(a, &VerdictPost{Accepted: true, SnapshotDigest: "d", FinalSnapshot: slices.Clone(refs)}) {
		t.Fatal("identical ACCEPTs disagree")
	}
	if agreeing(a, &VerdictPost{Accepted: true, SnapshotDigest: "d", FinalSnapshot: refs[:1]}) {
		t.Fatal("same digest over a different ref list passed the cross-check")
	}
	if agreeing(a, &VerdictPost{Accepted: true, SnapshotDigest: "e", FinalSnapshot: refs}) {
		t.Fatal("same ref list under a different digest passed the cross-check")
	}
}

// TestRestartResumesFromRefListCheckpoint: a restarted coordinator
// hands out the stored checkpoint's ref list as it is. The chunks are
// made unreadable for the restart, so anything that inflated or decoded
// the snapshot would fail.
func TestRestartResumesFromRefListCheckpoint(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	coord1, ts1 := startFleet(t, dir, CoordinatorOptions{To: 2})
	runWorkers(t, prog, ts1.URL, 1, nil)
	if err := coord1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}
	refs, err := epoch.LoadCheckpointRefs(dir, 2)
	if err != nil || len(refs) == 0 {
		t.Fatalf("epoch 2 left no ref-list checkpoint: %v", err)
	}
	casDir := filepath.Join(dir, epoch.CASDirName)
	if err := os.Rename(casDir, casDir+".away"); err != nil {
		t.Fatal(err)
	}
	coord2, err := NewCoordinator(dir, CoordinatorOptions{})
	if err != nil {
		t.Fatalf("restart touched the snapshot's chunks: %v", err)
	}
	defer coord2.Close()
	got := coord2.Ledger().Init().Refs
	if !slices.Equal(got, refs) || coord2.Ledger().Next() != 3 || len(coord2.Verdicts()) != 2 {
		t.Fatalf("restart did not resume from the checkpoint's ref list: %d refs, %d verdicts", len(got), len(coord2.Verdicts()))
	}
}

// getInit asks for a leased epoch's initial state and reports the
// status and, on 200, the ref list.
func getInit(url string, l *Lease) (int, []cas.Ref, error) {
	resp, err := http.Get(fmt.Sprintf("%s%s/epoch/%d/init?lease=%s", url, Prefix, l.Epoch, l.ID))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var ir InitResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			return 0, nil, err
		}
	}
	return resp.StatusCode, ir.Snapshot, nil
}

// TestInitLongPoll: an init request for a state that does not exist yet
// is held, not bounced — it answers the moment the previous epoch's
// verdict is published, answers 410 the moment the chain breaks, and
// answers 202 only when the (fake) clock runs out.
func TestInitLongPoll(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(dir, CoordinatorOptions{LeaseTimeout: 30 * time.Second, RetryMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	held := make(chan time.Duration, 8) // one send per request that starts waiting
	timeouts := make(chan time.Time)    // the fake clock: a send times one waiter out
	coord.after = func(d time.Duration) <-chan time.Time {
		held <- d
		return timeouts
	}
	ts := newFleetServer(t, as, coord)
	// Runs before the server's own cleanup: a failed test must not leave
	// a held request for Close to wait on.
	t.Cleanup(func() { close(timeouts) })

	l1 := leaseFor(t, ts.URL, "a", nil)
	l2 := leaseFor(t, ts.URL, "b", nil)
	l3 := leaseFor(t, ts.URL, "c", nil)
	if l1.Epoch != 1 || l2.Epoch != 2 || l3.Epoch != 3 {
		t.Fatalf("lookahead leases: %d %d %d", l1.Epoch, l2.Epoch, l3.Epoch)
	}
	type answer struct {
		status int
		refs   []cas.Ref
		err    error
	}
	ask := func(l *Lease) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			status, refs, err := getInit(ts.URL, l)
			ch <- answer{status, refs, err}
		}()
		select {
		case d := <-held:
			if d != 10*time.Second {
				t.Fatalf("request held for %v, want a third of the 30 s lease", d)
			}
		case a := <-ch:
			t.Fatalf("init request for an undecided epoch was not held: %+v", a)
		case <-time.After(10 * time.Second):
			t.Fatal("init request never reached the wait")
		}
		return ch
	}
	wait := func(ch <-chan answer) answer {
		select {
		case a := <-ch:
			if a.err != nil {
				t.Fatal(a.err)
			}
			return a
		case <-time.After(10 * time.Second):
			t.Fatal("held init request was never answered")
			return answer{}
		}
	}

	// Publish wakes: epoch 2's holder gets epoch 1's snapshot as posted.
	w2 := ask(l2)
	post1 := honestVerdict(t, prog, dir, l1, "a", nil)
	if status, body := postVerdict(t, ts.URL, nil, post1); status != http.StatusOK {
		t.Fatalf("epoch 1 post refused: %d %s", status, body)
	}
	if a := wait(w2); a.status != http.StatusOK || !slices.Equal(a.refs, post1.FinalSnapshot) {
		t.Fatalf("held request answered %d with %d refs after the publish", a.status, len(a.refs))
	}

	// Timeout: epoch 3 waits on epoch 2; the clock runs out first.
	w3 := ask(l3)
	timeouts <- time.Now()
	if a := wait(w3); a.status != http.StatusAccepted {
		t.Fatalf("timed-out request answered %d, want 202", a.status)
	}

	// Chain break wakes: epoch 2 REJECTs, epoch 3's lease is gone.
	w3 = ask(l3)
	reject := testVerdict{VerdictPost: VerdictPost{LeaseID: l2.ID, Worker: "b", Epoch: 2, ManifestSHA: l2.ManifestSHA,
		Reason: "output mismatch (test)"}}
	if status, body := postVerdict(t, ts.URL, nil, reject); status != http.StatusOK {
		t.Fatalf("epoch 2 REJECT refused: %d %s", status, body)
	}
	if a := wait(w3); a.status != http.StatusGone {
		t.Fatalf("request held across a chain break answered %d, want 410", a.status)
	}
	if coord.ChainAccepted() {
		t.Fatal("chain accepted despite the REJECT")
	}
}

// TestArtifactChunkWireForm: a chunk is served as the bytes at rest,
// labelled gzip, and counted as written; a chunk damaged at rest is a
// 502 carrying the store's own error text — the server verifies before
// it ships, or the damage would look like a transport fault.
func TestArtifactChunkWireForm(t *testing.T) {
	dir := t.TempDir()
	sealTestChain(t, dir)
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle(Prefix+"/", as.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ref := sealed[0].Manifest.ChunkRefs()[0]
	path := filepath.Join(dir, epoch.CASDirName, ref.SHA256[:2], ref.SHA256)
	atRest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	get := func() (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+Prefix+"/chunk/"+ref.SHA256, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", "gzip") // keep net/http from inflating
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	resp, body := get()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" || !bytes.Equal(body, atRest) {
		t.Fatalf("chunk served as %d, encoding %q, %d bytes; at rest it is %d bytes",
			resp.StatusCode, resp.Header.Get("Content-Encoding"), len(body), len(atRest))
	}
	if int64(len(atRest)) >= ref.Bytes {
		t.Fatalf("test chunk does not compress (%d at rest, %d logical)", len(atRest), ref.Bytes)
	}
	if st := as.Stats(); st.ChunksServed != 1 || st.BytesServed != int64(len(atRest)) {
		t.Fatalf("served counters %+v, want 1 chunk of %d bytes written", st, len(atRest))
	}

	tamperChunk(t, dir, ref.SHA256)
	store, err := epoch.OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, want := store.Get(ref.SHA256)
	resp, body = get()
	if resp.StatusCode != http.StatusBadGateway || want == nil || strings.TrimSpace(string(body)) != want.Error() {
		t.Fatalf("damaged chunk answered %d %q, want 502 %q", resp.StatusCode, body, want)
	}
	// The same words are what a remote worker rejects with.
	if _, err := cas.NewHTTPStore(ts.URL+Prefix, nil).Get(ref.SHA256); err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Fatalf("HTTPStore did not relay the store's words: %v", err)
	}
}
