package serve

import (
	"archive/tar"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/dsl-repro/hydra/internal/format"
	"github.com/dsl-repro/hydra/internal/matgen"
	"github.com/dsl-repro/hydra/internal/rate"
	"github.com/dsl-repro/hydra/internal/trace"
)

// ShardJobRequest is the POST /v1/shardjobs body: one fully resolved
// shard of an N-way split, the same unit orchestrate schedules. The
// server owns the output directory (a per-request temp dir); the caller
// gets the artifacts back as a bundle, never a server path.
type ShardJobRequest struct {
	// Format is the output format; required, and one that writes files
	// (format.FileNames: "csv", "heap", "jsonl", "spans" or "sql").
	Format string `json:"format"`
	// Compress names the output codec ("gzip"; empty disables).
	Compress string `json:"compress,omitempty"`
	// Shards/Shard select the piece, 0-based like matgen.Options.
	Shards int `json:"shards"`
	Shard  int `json:"shard"`
	// Tables restricts the job to a subset of relations (all when nil).
	Tables []string `json:"tables,omitempty"`
	// Workers is the encode worker count (0 = server default).
	Workers int `json:"workers,omitempty"`
	// RateLimit paces the job in rows/s, capped by the server's limit.
	RateLimit float64 `json:"rate_limit,omitempty"`
	// SummaryDigest, when set, must match the server's loaded summary;
	// a mismatch is refused with 409 Conflict. This is the guard
	// against a fleet member holding a stale summary and generating
	// data that cannot verify against the rest of the split.
	SummaryDigest string `json:"summary_digest,omitempty"`
}

// maxJobBody bounds the request document; job specs are tiny.
const maxJobBody = 1 << 20

// handleShardJob serves POST /v1/shardjobs: materialize one shard into
// a private temp dir, then stream the artifacts back as a tar bundle —
// data files first, the manifest last, so a client that received the
// manifest knows the bundle is complete. Generation happens entirely
// before the first response byte: a job that fails, fails with a real
// status code, never a torn 200.
func (s *Server) handleShardJob(w http.ResponseWriter, r *http.Request) {
	var req ShardJobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("serve: bad job request: %v", err), http.StatusBadRequest)
		return
	}
	if req.SummaryDigest != "" && req.SummaryDigest != s.digest {
		s.m.mismatch.Inc()
		http.Error(w, fmt.Sprintf("serve: summary digest mismatch: server has %s", s.digest),
			http.StatusConflict)
		return
	}
	if f, err := format.ByName(req.Format); err != nil || !f.Writes() {
		http.Error(w, fmt.Sprintf("serve: job format %q not servable", req.Format), http.StatusBadRequest)
		return
	}
	if _, err := matgen.CompressorFor(req.Compress); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Shards < 1 || req.Shard < 0 || req.Shard >= req.Shards {
		http.Error(w, fmt.Sprintf("serve: shard %d of %d out of range", req.Shard, req.Shards),
			http.StatusBadRequest)
		return
	}
	if req.RateLimit != 0 {
		if err := rate.Validate(req.RateLimit); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	// The job runs under a span continuing the orchestrator's trace, so
	// one distributed materialization shows every shard's server-side
	// time under the client's span tree (by shared trace id).
	psc, _ := trace.ParseTraceparent(r.Header.Get(trace.Header))
	ctx, sp := trace.StartRemote(r.Context(), "serve.shardjob", psc,
		trace.Str("format", req.Format),
		trace.Int("shard", int64(req.Shard+1)),
		trace.Int("shards", int64(req.Shards)),
		trace.Str("remote", r.RemoteAddr))
	defer sp.End()
	w.Header().Set(HeaderTraceID, sp.TraceID())
	if !s.acquire(w) {
		sp.Fail(errStreamRejected)
		return
	}
	defer s.release()

	dir, err := os.MkdirTemp("", "hydra-serve-job-")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer os.RemoveAll(dir)

	workers := req.Workers
	if workers == 0 {
		workers = s.opts.Workers
	}
	rep, err := matgen.MaterializeContext(ctx, s.sum, matgen.Options{
		Dir:       dir,
		Format:    req.Format,
		Compress:  req.Compress,
		Workers:   workers,
		Shards:    req.Shards,
		Shard:     req.Shard,
		Tables:    req.Tables,
		RateLimit: s.capRate(req.RateLimit),
	})
	if err != nil {
		sp.Fail(err)
		status := http.StatusInternalServerError
		if r.Context().Err() != nil {
			status = 499 // client closed request; nobody will read this
		}
		s.logError("shard job failed", "shard", req.Shard+1, "shards", req.Shards, "error", err.Error())
		http.Error(w, err.Error(), status)
		return
	}
	sp.SetAttrs(trace.Int("rows", rep.Rows))

	h := w.Header()
	h.Set("Content-Type", "application/x-tar")
	h.Set(HeaderRows, strconv.FormatInt(rep.Rows, 10))
	h.Set(HeaderDigest, s.digest)
	tw := tar.NewWriter(&flushWriter{w: w, rc: http.NewResponseController(w),
		writeTimeout: s.opts.WriteTimeout})
	for _, tr := range rep.Tables {
		if tr.Path == "" {
			continue
		}
		if err := addBundleFile(tw, tr.Path); err != nil {
			s.logError("shard job bundle failed", "file", filepath.Base(tr.Path), "error", err.Error())
			return
		}
	}
	if err := addBundleFile(tw, rep.ManifestPath); err != nil {
		s.logError("shard job bundle failed", "file", filepath.Base(rep.ManifestPath), "error", err.Error())
		return
	}
	if err := tw.Close(); err != nil {
		s.logError("shard job bundle failed", "error", err.Error())
	}
}

// addBundleFile appends one artifact to the bundle under its base name.
// The fixed mode and mtime keep bundle bytes a pure function of the
// artifact bytes.
func addBundleFile(tw *tar.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if err := tw.WriteHeader(&tar.Header{
		Name:    filepath.Base(path),
		Mode:    0o644,
		Size:    info.Size(),
		ModTime: time.Unix(0, 0).UTC(),
		Format:  tar.FormatPAX,
	}); err != nil {
		return err
	}
	_, err = io.Copy(tw, f)
	return err
}
