package verifier

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"orochi/internal/lang"
	"orochi/internal/reports"
	"orochi/internal/trace"
)

// This file implements the parallel audit engine. The paper observes
// that control-flow groups are re-executed independently — "the verifier
// can re-execute groups in any order" (§3.1, §4.7) — and that the Phase
// 2 redo has no cross-object ordering constraints (each shared object
// has its own operation log, §3.3), so both phases fan out across a
// worker pool. Parallelism must not change the verdict: a rejecting
// audit reports the exact failure a sequential scan would find first,
// and an accepting audit merges per-task state in task order, so
// Workers: N and Workers: 1 produce bit-identical results.

// normWorkers resolves the Workers option: <= 0 means one worker per
// available CPU.
func normWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// runPool runs n indexed tasks on up to `workers` goroutines. Workers
// pull indexes in increasing order and run(i) stores its own result.
// Cancelling ctx stops workers from pulling further indexes (tasks
// already started run to completion — a task is never interrupted
// midway, so every slot is either fully run or untouched). It returns
// true when every index was handled, false when cancellation left some
// unrun.
func runPool(ctx context.Context, n, workers int, run func(i int)) bool {
	if n == 0 {
		return true
	}
	var next, ran atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
				ran.Add(1)
			}
		}()
	}
	wg.Wait()
	return ran.Load() == int64(n)
}

// --- Phase 2: versioned redo across independent objects ---

// redoOutcome is one redo task's failure (a nil outcome means the task
// passed). objIdx is the object-log index where the failure occurred;
// among parallel failures the lowest objIdx wins, which is the failure
// a sequential object-order scan reports. f carries the forensics for
// the failure and rides the same arbitration.
type redoOutcome struct {
	objIdx int
	msg    string
	f      *Forensics
}

// redoFail builds a redo failure with its forensics: the failing object
// log and the 1-based sequence number of the offending entry (0 when
// the failure is not entry-specific).
func redoFail(rep *reports.Reports, objIdx, seq int, check, msg string) *redoOutcome {
	return &redoOutcome{objIdx: objIdx, msg: msg, f: &Forensics{
		Phase:   PhaseRedo,
		Check:   check,
		Object:  rep.Objects[objIdx].String(),
		OpIndex: seq,
	}}
}

// runRedo replays the operation logs into the versioned stores (Phase
// 2, §4.5) on a pool of workers. Logs that feed one store are a single
// task processed in object order — all DB logs build env.vdb, all KV
// logs build env.vkv — while each register log, which is validated but
// builds nothing, is a task of its own. It returns the rejection
// (message + forensics) of the earliest failure in object order (nil
// when every log passed) and whether the phase completed: false means
// ctx was cancelled before every log replayed, in which case even an
// observed failure cannot be arbitrated and the caller must abandon the
// audit without a verdict.
func runRedo(ctx context.Context, env *auditEnv, rep *reports.Reports, workers int, obs hook) (*rejection, bool) {
	var dbObjs, kvObjs []int
	var tasks []func() *redoOutcome
	for i, objID := range rep.Objects {
		switch objID.Kind {
		case reports.DBObj:
			dbObjs = append(dbObjs, i)
		case reports.KVObj:
			kvObjs = append(kvObjs, i)
		case reports.RegisterObj:
			tasks = append(tasks, func() *redoOutcome {
				o := redoRegisterLog(rep, i)
				obs.opsReplayed(len(rep.OpLogs[i]))
				return o
			})
		default:
			tasks = append(tasks, func() *redoOutcome {
				return redoFail(rep, i, 0, "unknown-object", fmt.Sprintf("unknown object kind %v", objID.Kind))
			})
		}
	}
	if len(dbObjs) > 0 {
		tasks = append(tasks, func() *redoOutcome {
			o := redoDBLogs(env, rep, dbObjs)
			for _, i := range dbObjs {
				obs.opsReplayed(len(rep.OpLogs[i]))
			}
			return o
		})
	}
	if len(kvObjs) > 0 {
		tasks = append(tasks, func() *redoOutcome {
			o := redoKVLogs(env, rep, kvObjs)
			for _, i := range kvObjs {
				obs.opsReplayed(len(rep.OpLogs[i]))
			}
			return o
		})
	}
	obs.phaseStart(PhaseRedo, len(rep.Objects))
	outcomes := make([]*redoOutcome, len(tasks))
	completed := runPool(ctx, len(tasks), workers, func(i int) { outcomes[i] = tasks[i]() })
	if !completed {
		return nil, false
	}
	var first *redoOutcome
	for _, o := range outcomes {
		if o != nil && (first == nil || o.objIdx < first.objIdx) {
			first = o
		}
	}
	if first != nil {
		return &rejection{msg: first.msg, f: first.f}, true
	}
	return nil, true
}

// redoDBLogs replays the DB operation logs into the versioned database.
// Only this task touches env.vdb (including its RedoTxns/RedoQueries
// counters), so the build needs no locking.
func redoDBLogs(env *auditEnv, rep *reports.Reports, objs []int) *redoOutcome {
	for _, i := range objs {
		for j, e := range rep.OpLogs[i] {
			if e.Type != lang.DBOp {
				return redoFail(rep, i, j+1, "log-shape", fmt.Sprintf("non-DB op in DB log at %d", j))
			}
			if !e.OK {
				continue // aborted transaction: no state effect
			}
			if err := env.vdb.ApplyTxnWith(int64(j+1), e.Stmts, env.parseSQL); err != nil {
				return redoFail(rep, i, j+1, "redo-apply", "versioned redo failed: "+err.Error())
			}
		}
	}
	return nil
}

// redoKVLogs replays the KV operation logs into the versioned KV store;
// only this task touches env.vkv.
func redoKVLogs(env *auditEnv, rep *reports.Reports, objs []int) *redoOutcome {
	for _, i := range objs {
		for j, e := range rep.OpLogs[i] {
			switch e.Type {
			case lang.KvSet:
				v, derr := lang.DecodeValue(e.Value)
				if derr != nil {
					return redoFail(rep, i, j+1, "undecodable-write", fmt.Sprintf("undecodable KV write at %d: %v", j, derr))
				}
				env.vkv.AddSet(e.Key, int64(j+1), v)
			case lang.KvGet:
				// reads contribute nothing to the build
			default:
				return redoFail(rep, i, j+1, "log-shape", fmt.Sprintf("non-KV op in KV log at %d", j))
			}
		}
	}
	return nil
}

// redoRegisterLog validates one register log. Registers are simulated
// from the log itself at re-execution time, so this pass only checks
// well-formedness.
func redoRegisterLog(rep *reports.Reports, i int) *redoOutcome {
	objID := rep.Objects[i]
	for j, e := range rep.OpLogs[i] {
		if e.Type != lang.RegisterRead && e.Type != lang.RegisterWrite {
			return redoFail(rep, i, j+1, "log-shape", fmt.Sprintf("non-register op in register log at %d", j))
		}
		if e.Key != objID.Name {
			return redoFail(rep, i, j+1, "register-key", fmt.Sprintf("register log %v entry %d names key %q", objID, j, e.Key))
		}
		// A write the verifier cannot decode can never match an honest
		// re-executed write, and if it were the register's LAST write it
		// would silently chain a stale value into the next period's
		// trusted snapshot via finalRegisters. Reject it here, symmetric
		// with the KV log validation.
		if e.Type == lang.RegisterWrite {
			if _, derr := lang.DecodeValue(e.Value); derr != nil {
				return redoFail(rep, i, j+1, "undecodable-write", fmt.Sprintf("undecodable register write in log %v entry %d: %v", objID, j, derr))
			}
		}
	}
	return nil
}

// --- Phase 3: grouped re-execution on a worker pool ---

// groupTask is one (tag, chunk) batch of a control-flow group. chunk is
// the batch's ordinal within its group — forensics name it so an
// operator can locate the failing batch of a large group.
type groupTask struct {
	tag    uint64
	script string
	rids   []string
	chunk  int
}

// buildGroupTasks flattens SortGroups into MaxGroup-sized batches in
// the canonical (tag, chunk) order — the order a sequential audit runs
// them in, and the order in which parallel failures are arbitrated.
func buildGroupTasks(rep *reports.Reports, maxGroup int) []groupTask {
	var tasks []groupTask
	for _, tag := range rep.SortGroups() {
		rids := dedupeRIDs(rep.Groups[tag])
		script := rep.Scripts[tag]
		for chunk := 0; chunk < len(rids); chunk += maxGroup {
			end := min(chunk+maxGroup, len(rids))
			tasks = append(tasks, groupTask{tag: tag, script: script, rids: rids[chunk:end], chunk: chunk / maxGroup})
		}
	}
	return tasks
}

// groupOutcome is the result of one group task. produced and stats are
// task-local and merged in task order afterwards, so the accumulated
// audit state never depends on worker scheduling.
type groupOutcome struct {
	rej      *rejection // non-nil: verification reject (message + forensics)
	err      error      // non-nil: internal fault
	produced map[string]bool
	stats    Stats
	skipped  bool
}

// runGroupTasks executes the group tasks on a pool of workers. Workers
// pull tasks in order; once any task fails, tasks ordered after the
// earliest known failure are skipped — group re-execution is
// side-effect-free on shared audit state, so a task's outcome is a
// deterministic function of the task alone, and the first failure in
// task order decides the verdict exactly as in a sequential audit.
// Every task ordered at or before that failure is guaranteed to run.
//
// Cancelling ctx stops workers from pulling further tasks; slots never
// run stay nil. The caller scans outcomes in task order and abandons
// the audit at the first nil, which preserves determinism: a verdict is
// published only when every task ordered before its deciding outcome
// actually ran.
func runGroupTasks(ctx context.Context, prog *lang.Program, env *auditEnv, tasks []groupTask,
	inputs map[string]trace.Input, responses map[string]string,
	opts Options, workers int, obs hook) []*groupOutcome {

	outcomes := make([]*groupOutcome, len(tasks))
	var failedAt atomic.Int64
	failedAt.Store(int64(len(tasks)))
	runPool(ctx, len(tasks), workers, func(i int) {
		if int64(i) > failedAt.Load() {
			// A task ordered strictly before this one already failed, so
			// this task can no longer affect the verdict. (failedAt only
			// ever decreases.)
			outcomes[i] = &groupOutcome{skipped: true}
			return
		}
		out := &groupOutcome{produced: make(map[string]bool, len(tasks[i].rids))}
		out.rej, out.err = runGroup(prog, env, tasks[i].script, tasks[i].tag, tasks[i].rids,
			inputs, responses, out.produced, opts, &out.stats)
		if out.rej != nil {
			out.rej.f.Chunk = tasks[i].chunk
		}
		outcomes[i] = out
		if out.rej != nil || out.err != nil {
			for {
				cur := failedAt.Load()
				if int64(i) >= cur || failedAt.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		} else {
			obs.groupReexecuted(tasks[i].script, tasks[i].tag, len(tasks[i].rids))
		}
	})
	return outcomes
}

// mergeStats folds one task-local Stats into the audit-wide Stats.
// Phase timings are owned by Audit itself and are not merged here.
func mergeStats(dst, src *Stats) {
	dst.DedupHits += src.DedupHits
	dst.DedupMisses += src.DedupMisses
	dst.InstrUni += src.InstrUni
	dst.InstrMulti += src.InstrMulti
	dst.Groups = append(dst.Groups, src.Groups...)
	dst.FallbackRequests += src.FallbackRequests
}
