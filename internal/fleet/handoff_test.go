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
	"orochi/internal/verifier"
)

// wireTap is the workers' http.RoundTripper in hand-off tests: it
// records every candidate post, every init response, and which chunk
// digests were asked for over the wire.
type wireTap struct {
	mu      sync.Mutex
	cands   []tappedVerdict
	inits   [][]cas.Ref
	fetched map[string]int // chunk digest -> GETs
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
		if p.Candidate {
			w.mu.Lock()
			w.cands = append(w.cands, tappedVerdict{post: p, chunkBytes: n})
			w.mu.Unlock()
		}
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
// it found it, the candidate ships the ref list and not one chunk byte,
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
	if !coord.ChainAccepted() || len(tap.cands) < 3 {
		t.Fatalf("quiet chain: accepted=%v after %d candidates: %+v", coord.ChainAccepted(), len(tap.cands), coord.Verdicts())
	}
	first := tap.cands[0]
	if len(first.post.Shipped) == 0 || first.chunkBytes == 0 {
		t.Fatalf("epoch 1 filled the render cache, its post must ship the changed chunks: %+v", first.post.Shipped)
	}
	if len(first.post.Shipped) >= len(first.post.FinalSnapshot) {
		t.Fatalf("epoch 1 shipped all %d chunks though most of the state is the manifest's own init", len(first.post.FinalSnapshot))
	}
	for _, v := range tap.cands[1:] {
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
	for n := int64(1); n <= int64(len(tap.cands)); n++ {
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
		if !slices.Equal(refs, tap.cands[i].post.FinalSnapshot) {
			t.Fatalf("epoch %d was handed something other than epoch %d's candidate", i+2, i+1)
		}
		changed += len(tap.cands[i].post.Shipped)
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

// TestVerdictSnapshotMustResolve: a candidate whose chunk bytes are not
// what their ref names, or whose ref list names a chunk nobody shipped
// and the store lacks, is refused 400 and decides nothing — and leaves
// nothing behind in the store; so is a candidate without a snapshot, a
// verdict with one, and an ACCEPT whose lease posted no candidate. The
// same lease then takes the honest posts.
func TestVerdictSnapshotMustResolve(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	coord, ts := startFleet(t, dir, CoordinatorOptions{To: 1})
	l := leaseFor(t, ts.URL, "w", nil)
	posts := honestPosts(t, prog, dir, l, "w", nil)
	honest, verdict := posts[0], posts[len(posts)-1]
	if len(posts) != 2 || !verdict.Accepted || len(honest.chunks) == 0 {
		t.Fatalf("need an ACCEPT with a snapshot: accepted=%v chunks=%d", verdict.Accepted, len(honest.chunks))
	}
	if status, body := postVerdict(t, ts.URL, nil, verdict); status != http.StatusBadRequest {
		t.Fatalf("ACCEPT before its candidate answered %d: %s", status, body)
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
		t.Fatalf("candidate without a snapshot answered %d: %s", status, body)
	}
	laden := honest
	laden.Candidate = false
	if status, body := postVerdict(t, ts.URL, nil, laden); status != http.StatusBadRequest {
		t.Fatalf("verdict carrying a snapshot answered %d: %s", status, body)
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
	if status, body := postAll(t, ts.URL, nil, posts...); status != http.StatusOK {
		t.Fatalf("honest posts on the kept lease refused: %d %s", status, body)
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
// their ref lists match — the raw snapshot form is canonical, so the
// list is the final state's identity.
func TestCrossCheckComparesRefLists(t *testing.T) {
	refs := []cas.Ref{{SHA256: "aa", Bytes: 10}, {SHA256: "bb", Bytes: 20}}
	a := &VerdictPost{Accepted: true, FinalSnapshot: refs}
	if !agreeing(a, &VerdictPost{Accepted: true, FinalSnapshot: slices.Clone(refs)}) {
		t.Fatal("identical ACCEPTs disagree")
	}
	if agreeing(a, &VerdictPost{Accepted: true, FinalSnapshot: refs[:1]}) {
		t.Fatal("a different ref list passed the cross-check")
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
// is held, not bounced — it answers the moment a candidate for the
// previous epoch is posted, answers 410 the moment the chain breaks,
// and answers 202 only when the (fake) clock runs out.
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
		t.Fatalf("each worker should lease the lowest free epoch: %d %d %d", l1.Epoch, l2.Epoch, l3.Epoch)
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

	// A candidate wakes: epoch 2's holder gets epoch 1's candidate while
	// epoch 1 is still undecided.
	w2 := ask(l2)
	posts1 := honestPosts(t, prog, dir, l1, "a", nil)
	cand1 := posts1[0]
	if status, body := postVerdict(t, ts.URL, nil, cand1); status != http.StatusOK {
		t.Fatalf("epoch 1 candidate refused: %d %s", status, body)
	}
	if a := wait(w2); a.status != http.StatusOK || !slices.Equal(a.refs, cand1.FinalSnapshot) {
		t.Fatalf("held request answered %d with %d refs after the candidate", a.status, len(a.refs))
	}
	if len(coord.Verdicts()) != 0 {
		t.Fatal("a candidate published a verdict")
	}

	// Timeout: epoch 3 waits on epoch 2; the clock runs out first.
	w3 := ask(l3)
	timeouts <- time.Now()
	if a := wait(w3); a.status != http.StatusAccepted {
		t.Fatalf("timed-out request answered %d, want 202", a.status)
	}

	// Chain break wakes: epoch 2 REJECTs from epoch 1's candidate, epoch
	// 1's verdict publishes both, and epoch 3's lease is gone.
	w3 = ask(l3)
	reject := testVerdict{VerdictPost: VerdictPost{LeaseID: l2.ID, Worker: "b", Epoch: 2, ManifestSHA: l2.ManifestSHA,
		InitRefs: cand1.FinalSnapshot, Reason: "output mismatch (test)"}}
	if status, body := postAll(t, ts.URL, nil, reject, posts1[1]); status != http.StatusOK {
		t.Fatalf("epoch 2 REJECT or epoch 1 ACCEPT refused: %d %s", status, body)
	}
	if a := wait(w3); a.status != http.StatusGone {
		t.Fatalf("request held across a chain break answered %d, want 410", a.status)
	}
	if v := coord.Verdicts(); coord.ChainAccepted() || len(v) != 2 || !v[0].Accepted || v[1].Accepted {
		t.Fatalf("want epoch 1 ACCEPT, epoch 2 REJECT: %+v", v)
	}
}

// TestArtifactChunkWireForm: a chunk is served as the bytes at rest,
// unopened, labelled gzip, and counted as written. A chunk damaged at
// rest goes out as it is on disk; only asked with ?verify=1 does the
// server check it, answering 502 with the store's own error text — and
// cas.HTTPStore, whose own check the damaged bytes fail, asks exactly
// that, so the damage reaches the worker as evidence and not as a
// transport fault.
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
	get := func(query string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+Prefix+"/chunk/"+ref.SHA256+query, nil)
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
	resp, body := get("")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" || !bytes.Equal(body, atRest) {
		t.Fatalf("chunk served as %d, encoding %q, %d bytes; at rest it is %d bytes",
			resp.StatusCode, resp.Header.Get("Content-Encoding"), len(body), len(atRest))
	}
	if int64(len(atRest)) >= ref.Bytes {
		t.Fatalf("test chunk does not compress (%d at rest, %d logical)", len(atRest), ref.Bytes)
	}
	if st := as.Stats(); st.ChunksServed != 1 || st.BytesServed != int64(len(atRest)) || st.ChunksVerified != 0 {
		t.Fatalf("served counters %+v, want 1 chunk of %d bytes written and none verified", st, len(atRest))
	}

	tamperChunk(t, dir, ref.SHA256)
	damaged, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	store, err := epoch.OpenChainStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, want := store.Get(ref.SHA256)
	if want == nil {
		t.Fatal("the tampered chunk still reads")
	}
	resp, body = get("")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, damaged) {
		t.Fatalf("damaged chunk served plainly as %d with %d bytes, want 200 with the %d bytes on disk", resp.StatusCode, len(body), len(damaged))
	}
	resp, body = get("?verify=1")
	if resp.StatusCode != http.StatusBadGateway || strings.TrimSpace(string(body)) != want.Error() {
		t.Fatalf("damaged chunk asked with ?verify=1 answered %d %q, want 502 %q", resp.StatusCode, body, want)
	}
	if st := as.Stats(); st.ChunksVerified != 1 {
		t.Fatalf("ChunksVerified = %d after one ?verify=1 request", st.ChunksVerified)
	}
	// The same words are what a remote worker rejects with.
	if _, err := cas.NewHTTPStore(ts.URL+Prefix, nil).Get(ref.SHA256); err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Fatalf("HTTPStore did not relay the store's words: %v", err)
	}
}

// fakeClock is a coordinator clock the test moves by hand.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// referenceAudit runs the sequential in-process audit, with
// checkpoints, on a copy of dir and returns the copy and the chain
// digest it reached.
func referenceAudit(t *testing.T, prog *lang.Program, dir string) (string, string) {
	t.Helper()
	ref := copyChain(t, dir)
	a := localAudit(t, prog, ref, epoch.AuditorOptions{Workers: 1, Checkpoints: true})
	if !a.ChainAccepted() {
		t.Fatalf("reference audit rejected: %+v", a.Verdicts())
	}
	return ref, a.Ledger().ChainSHA()
}

// TestForgedCandidateIsDiscarded: a hand-rolled worker posts a wrong
// candidate for epoch 1 — the honest state plus a register nobody
// reads — and goes silent. Epoch 2, audited from it, ACCEPTs; but once
// an honest worker has published epoch 1, that verdict names an initial
// state the ledger never published, so it is discarded (one init
// mismatch) and epoch 2 is leased and audited again. The ledger ends on
// the reference digest, and every state it checkpoints is the
// reference's.
func TestForgedCandidateIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	ref, want := referenceAudit(t, prog, dir)
	clock := &fakeClock{now: time.Now()}
	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(dir, CoordinatorOptions{LeaseTimeout: time.Minute, RetryMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.now = clock.Now
	ts := newFleetServer(t, as, coord)

	evil := leaseFor(t, ts.URL, "evil", nil)
	l2 := leaseFor(t, ts.URL, "b", nil)
	if evil.Epoch != 1 || l2.Epoch != 2 {
		t.Fatalf("leases: %d %d", evil.Epoch, l2.Epoch)
	}
	sealed, err := epoch.ListSealed(dir)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := epoch.Load(sealed[0])
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := epoch.PrepareEpoch(context.Background(), sealed[0], ld, nil, "", nil, verifier.Options{})
	if err != nil || p == nil {
		t.Fatalf("epoch 1 did not prepare: %v", err)
	}
	forged, err := p.Candidate()
	if err != nil {
		t.Fatal(err)
	}
	forged.Registers["forged"] = int64(1)
	if status, body := postVerdict(t, ts.URL, nil, candidateOf(t, evil, "evil", forged)); status != http.StatusOK {
		t.Fatalf("forged candidate refused: %d %s", status, body)
	}
	forgedRefs, _ := refsOf(t, forged)
	if status, refs, err := getInit(ts.URL, l2); err != nil || status != http.StatusOK || !slices.Equal(refs, forgedRefs) {
		t.Fatalf("epoch 2 was not handed the forged candidate: %d %v", status, err)
	}
	posts := honestPosts(t, prog, dir, l2, "b", forged)
	if v := posts[len(posts)-1]; !v.Accepted {
		t.Fatalf("epoch 2 audited from the forged state rejected: %s", v.Reason)
	}
	if status, body := postAll(t, ts.URL, nil, posts...); status != http.StatusOK {
		t.Fatalf("epoch 2 posts refused: %d %s", status, body)
	}

	clock.Advance(2 * time.Minute) // the forger's lease expires
	runWorkers(t, prog, ts.URL, 1, nil)
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := coord.Stats()
	if st.InitMismatches != 1 {
		t.Fatalf("InitMismatches = %d, want 1", st.InitMismatches)
	}
	if !coord.ChainAccepted() || coord.ChainSHA() != want {
		t.Fatalf("ledger ends on %.12s (accepted %v), want the reference %.12s", coord.ChainSHA(), coord.ChainAccepted(), want)
	}
	for _, s := range sealed {
		got, err := epoch.LoadCheckpointRefs(dir, s.Number)
		if err != nil {
			t.Fatal(err)
		}
		if wantRefs, err := epoch.LoadCheckpointRefs(ref, s.Number); err != nil || !slices.Equal(got, wantRefs) {
			t.Fatalf("epoch %d's checkpointed state is not the reference's (%v)", s.Number, err)
		}
	}
}

// TestInitAbandonsForOrphanedEarlierEpoch: worker a leases epoch 1 and
// goes silent; worker b leases epoch 2 and waits for its initial state.
// Once a's lease has timed out nobody holds epoch 1, and b — which asks
// only for init, never for a new lease, while it waits — must be told
// to let go: its init request answers 410, its next lease is epoch 1,
// and it audits the chain to the reference digest.
func TestInitAbandonsForOrphanedEarlierEpoch(t *testing.T) {
	dir := t.TempDir()
	prog := sealTestChain(t, dir)
	_, want := referenceAudit(t, prog, dir)
	clock := &fakeClock{now: time.Now()}
	as, err := NewArtifactServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(dir, CoordinatorOptions{LeaseTimeout: time.Minute, RetryMS: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.now = clock.Now
	waiting := make(chan struct{}, 1)
	coord.after = func(time.Duration) <-chan time.Time {
		select {
		case waiting <- struct{}{}:
		default:
		}
		ch := make(chan time.Time, 1)
		ch <- time.Time{} // held requests time out at once: 202
		return ch
	}
	ts := newFleetServer(t, as, coord)

	if l := leaseFor(t, ts.URL, "a", nil); l.Epoch != 1 {
		t.Fatalf("a leased epoch %d, want 1", l.Epoch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var mu sync.Mutex
	var order []int64
	done := make(chan error, 1)
	var stats WorkerStats
	go func() {
		var err error
		stats, err = RunWorker(ctx, prog, WorkerOptions{Coordinator: ts.URL, Name: "b", InitPoll: time.Millisecond,
			OnEpoch: func(r EpochReport) {
				mu.Lock()
				order = append(order, r.Epoch)
				mu.Unlock()
			}})
		done <- err
	}()
	// Move the clock in two steps, each past an init request of b's, so
	// b's renewals keep its own lease alive while a's runs out.
	for step := 0; step < 2; step++ {
		for seen := 0; seen < 2; seen++ { // the second is surely a request sent after the last step
			select {
			case <-waiting:
			case <-ctx.Done():
				t.Fatal("b never waited for epoch 2's initial state")
			}
		}
		clock.Advance(40 * time.Second)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker b: %v (an orphaned epoch 1 must not hold b forever)", err)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if len(order) == 0 || order[0] != 1 || stats.Abandoned != 1 {
		t.Fatalf("b audited epochs %v after %d abandoned leases; want epoch 1 first, after abandoning epoch 2", order, stats.Abandoned)
	}
	if st := coord.Stats(); st.LeasesReassigned != 1 {
		t.Fatalf("%d leases timed out, want a's alone", st.LeasesReassigned)
	}
	if !coord.ChainAccepted() || coord.ChainSHA() != want {
		t.Fatalf("ledger ends on %.12s (accepted %v), want the reference %.12s", coord.ChainSHA(), coord.ChainAccepted(), want)
	}
}

// TestChunkSnapshotMatchesSequential: compressing a candidate's new
// chunks in parallel changes nothing a reader can see — the refs, the
// ascending Shipped list, every frame byte for byte, and the hot-cache
// writes are what one chunk after another gives, with a chunk that
// repeats shipped once and held chunks not at all.
func TestChunkSnapshotMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	block := make([]byte, 300<<10)
	rng.Read(block)
	tail := make([]byte, 200<<10)
	rng.Read(tail)
	raw := slices.Concat(block, []byte("seam"), block, tail)

	// The sequential reference.
	var refs []cas.Ref
	var shipped []int
	var frames [][]byte
	chunks := cas.DefaultChunker.Split(raw)
	for _, c := range chunks {
		refs = append(refs, cas.Ref{SHA256: cas.SumHex(c), Bytes: int64(len(c))})
	}
	held := refs[len(refs)-2:]
	known := map[string]bool{}
	for _, r := range held {
		known[r.SHA256] = true
	}
	for i, r := range refs {
		if known[r.SHA256] {
			continue
		}
		known[r.SHA256] = true
		gz, err := encio.Gzip(chunks[i])
		if err != nil {
			t.Fatal(err)
		}
		shipped = append(shipped, i)
		frames = append(frames, gz)
	}
	if len(shipped) < 4 || len(shipped)+len(held) >= len(refs) {
		t.Fatalf("%d chunks, %d shipped: the test needs several to ship and one to repeat", len(refs), len(shipped))
	}

	fsHot, err := cas.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, hot := range map[string]cas.Store{"memory": cas.NewMemory(), "fs": fsHot} {
		w := &worker{opts: WorkerOptions{Hot: hot}}
		var post VerdictPost
		got, err := w.chunkSnapshot(&post, raw, held)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(post.FinalSnapshot, refs) || !slices.Equal(post.Shipped, shipped) {
			t.Fatalf("%s: refs or Shipped differ from the sequential cut: shipped %v, want %v", name, post.Shipped, shipped)
		}
		if !slices.EqualFunc(got, frames, bytes.Equal) {
			t.Fatalf("%s: frames differ from sequential encio.Gzip output", name)
		}
		want := make(map[string]bool)
		for _, i := range shipped {
			want[refs[i].SHA256] = true
		}
		for i, r := range refs {
			if _, err := hot.Get(r.SHA256); (err == nil) != want[r.SHA256] {
				t.Fatalf("%s: hot cache Get of chunk %d = %v; want it cached iff shipped (%v)", name, i, err, want[r.SHA256])
			}
		}
		if fs, ok := hot.(*cas.FS); ok {
			for k, i := range shipped {
				if b, err := fs.ReadStored(refs[i].SHA256); err != nil || !bytes.Equal(b, frames[k]) {
					t.Fatalf("fs: cached chunk %d is not the frame shipped: %v", i, err)
				}
			}
		}
	}
}

// sealRepeatChain seals a chain of a two-script app whose first request
// inserts one long computed string twice and echoes only its length.
// The string is full of quotes, which the logged SQL doubles, so its
// stored form is in no sealed trace or report: epoch 1's candidate
// state names chunks twice that the chain store lacks.
func sealRepeatChain(t *testing.T, dir string) *lang.Program {
	t.Helper()
	app := &apps.App{Name: "twins", Schema: []string{`CREATE TABLE twins (id INT PRIMARY KEY AUTOINCREMENT, body TEXT)`},
		Sources: map[string]string{
			"twin": `
$s = "";
for ($i = 0; $i < 12000; $i++) {
  $s .= md5("twin " . $i) . "'";
}
db_exec("INSERT INTO twins (body) VALUES (" . db_quote($s) . ")");
db_exec("INSERT INTO twins (body) VALUES (" . db_quote($s) . ")");
echo strlen($s);
`,
			"ping": `echo "pong";`,
		}}
	prog := app.Compile()
	srv := server.New(prog, server.Options{Record: true})
	if err := srv.Setup(app.Schema); err != nil {
		t.Fatal(err)
	}
	mgr, err := epoch.StartManager(dir, srv, srv.Snapshot(), epoch.ManagerOptions{EpochEvents: 20})
	if err != nil {
		t.Fatal(err)
	}
	srv.ServeAllContext(context.Background(), []trace.Input{{Script: "twin"}}, 1)
	for b := 0; b < 3; b++ {
		reqs := make([]trace.Input, 12)
		for i := range reqs {
			reqs[i] = trace.Input{Script: "ping"}
		}
		srv.ServeAllContext(context.Background(), reqs, 2)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSnapshotRepeatedAndCorruptChunks: the coordinator resolves a
// candidate's whole ref list before it files the shipped chunks in
// parallel. A chunk named twice ships once and its second ref resolves
// to the first — the chain audits to the local ledger, and the state
// filed reads back cold. A post with corrupt chunks among many shipped
// is refused 400 naming the lowest bad index; nothing is recorded and
// the lease is kept.
func TestSnapshotRepeatedAndCorruptChunks(t *testing.T) {
	master := t.TempDir()
	prog := sealRepeatChain(t, master)
	want := normalize(t, singleAudit(t, prog, copyChain(t, master)))

	t.Run("repeated chunk", func(t *testing.T) {
		dir := copyChain(t, master)
		coord, ts := startFleet(t, dir, CoordinatorOptions{})
		tap := runTappedWorker(t, prog, ts.URL)
		if err := coord.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		requireSameLedger(t, "fleet", normalize(t, coord.Verdicts()), want)
		if len(tap.cands) < 2 || len(tap.inits) < 1 {
			t.Fatalf("%d candidates, %d init hand-offs: need epoch 2 to start from epoch 1's", len(tap.cands), len(tap.inits))
		}
		first := tap.cands[0].post
		seen := map[string]int{}
		repeated := ""
		for i, r := range first.FinalSnapshot {
			if _, ok := seen[r.SHA256]; ok && slices.Contains(first.Shipped, seen[r.SHA256]) {
				repeated = r.SHA256
				if slices.Contains(first.Shipped, i) {
					t.Fatalf("chunk %.12s shipped again at index %d", r.SHA256, i)
				}
			} else if !ok {
				seen[r.SHA256] = i
			}
		}
		if repeated == "" {
			t.Fatal("epoch 1's candidate names no new chunk twice; the test proves nothing")
		}
		sealedStore, err := epoch.OpenChainStore(master)
		if err != nil {
			t.Fatal(err)
		}
		if sealedStore.Has(repeated) {
			t.Fatalf("chunk %.12s is in the sealed chain; its repeat resolves without the shipped copy", repeated)
		}
		if !slices.Equal(tap.inits[0], first.FinalSnapshot) {
			t.Fatal("epoch 2 was not handed epoch 1's candidate")
		}
		store, err := epoch.OpenChainStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cas.ReadBlob(store, first.FinalSnapshot); err != nil {
			t.Fatalf("epoch 1's filed state does not read back: %v", err)
		}
	})

	t.Run("corrupt chunks among many", func(t *testing.T) {
		dir := copyChain(t, master)
		coord, ts := startFleet(t, dir, CoordinatorOptions{To: 1})
		l := leaseFor(t, ts.URL, "w", nil)
		posts := honestPosts(t, prog, dir, l, "w", nil)
		honest := posts[0]
		store, err := epoch.OpenChainStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []int // first shipped copies of chunks the store lacks: the ones verified
		seen := map[string]bool{}
		for k, idx := range honest.Shipped {
			sha := honest.FinalSnapshot[idx].SHA256
			if !seen[sha] && !store.Has(sha) {
				fresh = append(fresh, k)
			}
			seen[sha] = true
		}
		if len(fresh) < 4 {
			t.Fatalf("only %d fresh chunks shipped", len(fresh))
		}
		lo, hi := fresh[len(fresh)/2], fresh[len(fresh)-1]
		bad := honest
		bad.chunks = slices.Clone(honest.chunks)
		for _, k := range []int{hi, lo} {
			if bad.chunks[k], err = encio.Gzip([]byte(fmt.Sprintf("not chunk %d", k))); err != nil {
				t.Fatal(err)
			}
		}
		status, body := postVerdict(t, ts.URL, nil, bad)
		if wantMsg := fmt.Sprintf("final snapshot chunk %d:", honest.Shipped[lo]); status != http.StatusBadRequest || !strings.Contains(string(body), wantMsg) {
			t.Fatalf("post with corrupt chunks %d and %d answered %d %q, want 400 naming %q",
				honest.Shipped[lo], honest.Shipped[hi], status, body, wantMsg)
		}
		if st := coord.Stats(); st.EpochsDecided != 0 || st.SnapshotChunksPosted != 0 || st.SnapshotChunksReused != 0 {
			t.Fatalf("a refused post was recorded: %+v", st)
		}
		for _, k := range []int{lo, hi} {
			if store.Has(honest.FinalSnapshot[honest.Shipped[k]].SHA256) {
				t.Fatalf("corrupt chunk %d reached the chain store", honest.Shipped[k])
			}
		}
		if status, body := postAll(t, ts.URL, nil, posts...); status != http.StatusOK {
			t.Fatalf("honest posts on the kept lease refused: %d %s", status, body)
		}
		if err := coord.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		requireSameLedger(t, "epoch 1", normalize(t, coord.Verdicts()), want[:1])
	})
}
