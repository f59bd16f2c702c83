package supervise

import (
	"fmt"
	"testing"

	"faultstudy/internal/apps/sqldb"
	"faultstudy/internal/faultinject"
	"faultstudy/internal/simenv"
)

// TestRestoreRungReplaysWAL walks the ladder against a database with durable
// state and requires every state-preserving rung — the retry rung's and the
// microreboot fallback's Restore(preOp), and the restore rung's
// Restore(epoch) — to be served by write-ahead-log replay, never by the
// logical snapshot fallback. The counters are sampled when the ladder
// escalates to the restart rung, whose Reset legitimately destroys the log.
func TestRestoreRungReplaysWAL(t *testing.T) {
	env := simenv.New(31)
	srv := sqldb.New(env, faultinject.NewSet(sqldb.MechOrderByEmpty))
	sc := sqldb.Scenarios(srv)[sqldb.MechOrderByEmpty]
	// seedTable's five statements, then enough inserts that the epoch
	// checkpoint refreshes on the served prefix: the epoch is the snapshot
	// before the last insert, durable state the restore rung rolls back to.
	ops := wrapOps(sc.Ops[:len(sc.Ops)-1], OpRead)
	for k := 4; len(ops) < checkpointEvery; k++ {
		sql := fmt.Sprintf("INSERT INTO t VALUES (%d, 'row%d')", k, k)
		ops = append(ops, Op{Name: sql, Kind: OpRead, Do: func() error {
			_, err := srv.Exec(sql)
			return err
		}})
	}
	ops = append(ops, wrapOps(sc.Ops[len(sc.Ops)-1:], OpRead)...)

	sampled := false
	var replays, fallbacks int64
	sup := New(srv, Config{Seed: 31, Trace: func(ev Event) {
		if ev.Kind == EventEscalate && ev.Rung == RungRestart && !sampled {
			sampled = true
			replays, fallbacks = srv.WALReplays(), srv.LogicalFallbacks()
		}
	}})
	rep, err := sup.Run(ops)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Every insert serves; the empty-ORDER-BY query is the deterministic
	// failure the ladder cannot repair.
	if rep.OpsOK != checkpointEvery || rep.OpsFailed != 1 {
		t.Fatalf("ops ok/failed = %d/%d, want %d/1\n%s", rep.OpsOK, rep.OpsFailed, checkpointEvery, rep)
	}
	if rep.Escalations[RungRestore] == 0 || !sampled {
		t.Fatalf("the ladder never climbed through the restore rung to restart\n%s", rep)
	}
	// Two retry-rung restores, two microreboot fallbacks, two restore-rung
	// rollbacks: all served by replay.
	if replays < 3*rungAttempts {
		t.Errorf("wal replays before restart = %d, want >= %d (every ladder restore)", replays, 3*rungAttempts)
	}
	if fallbacks != 0 {
		t.Errorf("logical fallbacks before restart = %d, want 0", fallbacks)
	}
}

// TestRestartRungFallsBackToLogicalRebuild is the complementary path: once
// the restart rung's Reset has deliberately destroyed the store, a later
// restore cannot be served by replay and must take the logical rebuild —
// which also resyncs the store so replay works again afterwards.
func TestRestartRungFallsBackToLogicalRebuild(t *testing.T) {
	env := simenv.New(32)
	srv := sqldb.New(env, faultinject.NewSet(sqldb.MechOrderByEmpty))
	sc := sqldb.Scenarios(srv)[sqldb.MechOrderByEmpty]
	sup := New(srv, Config{Seed: 32})
	rep, err := sup.Run(wrapOps(sc.Ops, OpRead))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Escalations[RungRestart] == 0 {
		t.Fatalf("the ladder never reached the restart rung\n%s", rep)
	}
	if got := srv.LogicalFallbacks(); got == 0 {
		t.Error("no logical fallback recorded after Reset destroyed the log")
	}
	if got := srv.WALReplays(); got < 2 {
		t.Errorf("wal replays = %d, want >= 2 before the restart rung", got)
	}
}
