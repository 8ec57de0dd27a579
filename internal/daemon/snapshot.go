package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// Warm boot (DESIGN.md §14). The daemon's prelude — the Lisp standard
// library every request sees — is compiled once into a snapshot,
// rehydrated once (its image loaded and verified into a template
// machine, its sources read); each per-request system then copies the
// template and the rehydrated state instead of recompiling the prelude.
// With a snapshot store configured, the snapshot also persists across
// process restarts: Boot tries the pinned "boot" snapshot before paying
// a cold compile, and Checkpoint (SIGUSR1, POST /admin/checkpoint, and
// the automatic one after Boot's cold compile) rewrites it crash-safely.
//
// Every degradation path is non-fatal: a missing, stale, corrupt or
// unverifiable snapshot costs a cold compile (flight-recorded as
// snapshot-fallback, with corrupt files quarantined by the store),
// never a crash and never a wrong image — restores are verified against
// the recorded image hash and allocator context before use.

// snapBootName is the pinned snapshot the daemon boots workers from.
const snapBootName = "boot"

// sysOptions is the per-request system configuration. The checkpoint
// system is built with exactly these options so that restored machines
// verify against the snapshot's recorded allocator context.
func (s *Server) sysOptions() core.Options {
	return core.Options{
		Jobs:         1, // concurrency lives at the request level
		MaxSteps:     s.cfg.MaxSteps,
		MaxHeapWords: s.cfg.MaxHeapWords,
		OptWatchdog:  s.cfg.OptWatchdog,
		DiskCache:    s.cfg.Disk,
		Fault:        s.cfg.Fault,
		Flight:       s.flight,
	}
}

// bootSystem builds the system for one request: restored from the boot
// snapshot when one is live, cold-compiled (prelude included) when not
// or when the restore fails verification.
func (s *Server) bootSystem(opts core.Options, traceID string) *core.System {
	if boot := s.boot.Load(); boot != nil {
		sys, err := boot.Restore(opts)
		if err == nil {
			s.mu.Lock()
			s.stats.SnapshotRestores++
			s.mu.Unlock()
			return sys
		}
		s.mu.Lock()
		s.stats.SnapshotRestoreFailures++
		s.mu.Unlock()
		s.flight.Record(obs.Event{Kind: obs.EvSnapshotFallback, Trace: traceID,
			Unit: snapBootName, Msg: err.Error()})
		s.log.LogAttrs(nil, slog.LevelWarn, "snapshot restore failed, cold compiling",
			slog.String("trace_id", traceID), slog.String("err", err.Error()))
	}
	sys := core.NewSystem(opts)
	if s.cfg.Prelude != "" {
		// Prelude problems were already diagnosed at Boot/Checkpoint time;
		// a request-time cold load degrades per-unit like any other load.
		sys.LoadStringDiag(s.cfg.Prelude)
	}
	return sys
}

// Boot arms warm boot. With a snapshot store it first tries the pinned
// "boot" snapshot: if present, built from the *same* prelude source,
// and verifiably restorable, requests go warm with zero compiles — an
// O(restore) process start. Otherwise (or with no store) it cold
// compiles the prelude once and checkpoints. Returns an error only if
// the prelude itself does not compile; snapshot trouble always degrades
// to the cold path.
func (s *Server) Boot() error {
	// Resident sessions revive (or are reported lost) regardless of how
	// the prelude boots.
	defer s.restoreSessions()
	if s.cfg.Prelude == "" {
		return nil
	}
	if st := s.cfg.Snapshots; st != nil {
		snap, err := st.Load(snapBootName)
		switch {
		case err == nil && snap.Meta.SourceHash != snapshot.HashSources([]string{s.cfg.Prelude}):
			// The prelude changed since this snapshot was written: it is
			// valid but stale. Fall through to recompile and re-checkpoint.
			s.log.LogAttrs(nil, slog.LevelInfo, "boot snapshot stale, recompiling prelude")
		case err == nil:
			boot, rerr := core.Rehydrate(snap)
			if rerr == nil {
				// Rehydrate verified the image; restore once the way every
				// request will, checking the allocator context under the
				// request configuration, then discard the system.
				_, rerr = boot.Restore(s.sysOptions())
			}
			if rerr == nil {
				s.boot.Store(boot)
				s.flight.Record(obs.Event{Kind: obs.EvSnapshotRestore, Unit: snapBootName})
				s.log.LogAttrs(nil, slog.LevelInfo, "warm boot from snapshot",
					slog.String("image", snap.Meta.ImageHash))
				return nil
			} else {
				// Decoded cleanly but does not reproduce its recorded image.
				s.flight.Record(obs.Event{Kind: obs.EvSnapshotFallback,
					Unit: snapBootName, Msg: rerr.Error()})
				s.log.LogAttrs(nil, slog.LevelWarn, "boot snapshot failed verification",
					slog.String("err", rerr.Error()))
			}
		case errors.Is(err, snapshot.ErrNotFound):
			// First boot in this directory: cold compile and checkpoint.
		default:
			// Corrupt or unreadable; the store has quarantined it.
			s.flight.Record(obs.Event{Kind: obs.EvSnapshotFallback,
				Unit: snapBootName, Msg: err.Error()})
			s.log.LogAttrs(nil, slog.LevelWarn, "boot snapshot unusable",
				slog.String("err", err.Error()))
		}
	}
	return s.Checkpoint()
}

// Checkpoint compiles the prelude from scratch, snapshots and
// rehydrates the result, makes it the live boot snapshot, and (with a
// store configured) persists it under the pinned name with the store's
// crash-safe write protocol. cmd/slcd calls this on SIGUSR1; POST /admin/checkpoint is
// the HTTP spelling.
func (s *Server) Checkpoint() error {
	if s.cfg.Prelude == "" {
		return fmt.Errorf("daemon: no prelude configured, nothing to checkpoint")
	}
	sys := core.NewSystem(s.sysOptions())
	if err := sys.LoadString(s.cfg.Prelude); err != nil {
		return fmt.Errorf("daemon: prelude: %w", err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		return fmt.Errorf("daemon: snapshot prelude: %w", err)
	}
	boot, err := core.Rehydrate(snap)
	if err != nil {
		return fmt.Errorf("daemon: rehydrate prelude: %w", err)
	}
	s.boot.Store(boot)
	if st := s.cfg.Snapshots; st != nil {
		if err := st.Save(snapBootName, snap); err != nil {
			return fmt.Errorf("daemon: checkpoint: %w", err)
		}
	}
	s.mu.Lock()
	s.stats.SnapshotCheckpoints++
	s.mu.Unlock()
	s.flight.Record(obs.Event{Kind: obs.EvSnapshotCheckpoint, Unit: snapBootName,
		Msg: "image=" + snap.Meta.ImageHash})
	s.log.LogAttrs(nil, slog.LevelInfo, "snapshot checkpoint written",
		slog.String("image", snap.Meta.ImageHash))
	return nil
}

// handleCheckpoint is POST /admin/checkpoint.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.Checkpoint(); err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]any{"ok": false, "error": err.Error()})
		return
	}
	json.NewEncoder(w).Encode(map[string]any{
		"ok":          true,
		"checkpoints": s.Stats().SnapshotCheckpoints,
	})
}
