package registry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"pnptuner/internal/api"
	"pnptuner/internal/core"
	"pnptuner/internal/httpx"
)

// FetchFunc pulls a model's serialized blob from somewhere else in the
// fleet — a peer replica's blob endpoint — on a local miss. It returns
// the raw Marshal bytes; (nil, nil) or an error both mean "no peer has
// it" and the resolve falls through to training. The registry validates
// whatever comes back exactly like a disk load, so a byte-flipped or
// stale peer blob can never be served. ctx carries the resolving
// request's values — notably its trace ID, which the client SDK stamps
// on the outbound fetch so one trace spans the peer hop — but never
// cancellation (the resolve is shared by every single-flight waiter).
type FetchFunc func(ctx context.Context, k Key) ([]byte, error)

// SetFetcher installs the peer-fetch hook consulted after the on-disk
// store and before training. Call before serving traffic; the hook must
// be safe for concurrent use (single-flight means at most one fetch per
// key is in flight, but different keys fetch concurrently).
func (r *Registry) SetFetcher(f FetchFunc) {
	r.mu.Lock()
	r.fetch = f
	r.mu.Unlock()
}

// ExportBlob returns the serialized blob of the model with content
// address id: the on-disk store file verbatim when present, otherwise a
// fresh Marshal of the cached entry. Reading weights concurrently with
// batched forwards is safe — forwards never mutate parameters — and
// training always finishes before an entry is published.
func (r *Registry) ExportBlob(id string) ([]byte, error) {
	r.mu.Lock()
	var entry *Entry
	for _, v := range r.cache.all() {
		if e := v.(*Entry); e.Key.ID() == id {
			entry = e
			break
		}
	}
	dir := r.dir
	r.mu.Unlock()

	if dir != "" {
		if entry != nil {
			if data, err := os.ReadFile(r.path(entry.Key)); err == nil {
				return data, nil
			}
		} else {
			// Not cached: the store file's own metadata says whether it
			// exists; serve it verbatim (the importer re-validates).
			for _, info := range r.List() {
				if info.ID == id && info.OnDisk {
					return os.ReadFile(r.path(info.Key))
				}
			}
		}
	}
	if entry != nil {
		return entry.Model.Marshal(entry.Meta)
	}
	return nil, fmt.Errorf("registry: no model with id %s: %w", id, ErrModelNotFound)
}

// ImportBlob installs a serialized model blob (the PUT blob endpoint,
// and the tail of a peer fetch): digest-checked unmarshal, key
// validation, staleness check against this binary's space/vocabulary,
// best-effort persist of the verbatim bytes, then publication in the
// cache. wantID, when non-empty, must match the blob's own content
// address — nothing is installed on a mismatch, so a confused peer can
// never poison an address. Returns the resolved entry.
func (r *Registry) ImportBlob(data []byte, wantID string) (*Entry, error) {
	e, err := r.entryFromBlob(data)
	if err != nil {
		return nil, err
	}
	if wantID != "" && e.Key.ID() != wantID {
		return nil, fmt.Errorf("registry: blob content address %s does not match requested id %s", e.Key.ID(), wantID)
	}
	r.persistBlob(e.Key, data)

	r.mu.Lock()
	r.stats.Imported++
	r.stats.Evicted += int64(len(r.cache.put(e.Key.ID(), e)))
	r.mu.Unlock()
	return e, nil
}

// entryFromBlob validates blob bytes into a servable entry, sharing the
// disk-load validation sequence: digest + strict restore, then the
// stored key must be well-formed and current for this binary.
func (r *Registry) entryFromBlob(data []byte) (*Entry, error) {
	m, meta, err := core.UnmarshalModel(data)
	if err != nil {
		return nil, fmt.Errorf("registry: blob unusable: %w", err)
	}
	key := Key{Machine: meta.Machine, Scenario: meta.Scenario, Objective: meta.Objective}
	if err := key.Validate(); err != nil {
		return nil, fmt.Errorf("registry: blob names invalid model %s: %w", key, err)
	}
	if err := checkMetaCurrent(key, meta); err != nil {
		return nil, fmt.Errorf("registry: blob for %s is stale: %w", key, err)
	}
	meta.Normalize()
	return &Entry{Key: key, Model: m, Meta: meta}, nil
}

// persistBlob writes the verbatim blob bytes to the store (atomic
// tmp+rename). Best-effort like the post-training persist: a full disk
// must not fail serving, so failures only bump the persist counter.
func (r *Registry) persistBlob(key Key, data []byte) {
	if r.dir == "" {
		return
	}
	path := r.path(key)
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		r.mu.Lock()
		r.stats.PersistFailures++
		r.mu.Unlock()
	}
}

// handleModelBlob serves GET/PUT /v1/models/{id}/blob: export a model's
// serialized bytes to a peer, or import a peer's bytes into this
// replica's store. This pair is the replication path of the
// shared-nothing replica tier — one replica trains, the others fetch.
func (s *Server) handleModelBlob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, api.PathModels+"/")
	id, suffix, ok := strings.Cut(rest, "/")
	if !ok {
		// No suffix: GET /v1/models/{id} is the model-detail endpoint.
		s.handleModelDetail(w, r, rest)
		return
	}
	if suffix != "blob" || id == "" {
		httpx.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, err := s.reg.ExportBlob(id)
		if err != nil {
			if errors.Is(err, ErrModelNotFound) {
				httpx.WriteError(w, r, api.Errorf(api.CodeModelNotFound, "%v", err))
			} else {
				httpx.WriteError(w, r, api.Errorf(api.CodeInternal, "%v", err))
			}
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", fmt.Sprint(len(data)))
		w.Write(data)
	case http.MethodPut:
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, api.MaxBlobBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpx.WriteError(w, r, api.Errorf(api.CodeGraphTooLarge, "blob over %d bytes", api.MaxBlobBytes))
			} else {
				httpx.WriteError(w, r, api.Errorf(api.CodeBadRequest, "read blob: %v", err))
			}
			return
		}
		e, err := s.reg.ImportBlob(data, id)
		if err != nil {
			httpx.WriteError(w, r, api.Errorf(api.CodeBadRequest, "%v", err))
			return
		}
		httpx.WriteJSON(w, http.StatusOK, api.ModelInfo{
			Key: api.ModelKey{Machine: e.Key.Machine, Scenario: e.Key.Scenario, Objective: e.Key.Objective},
			ID:  e.Key.ID(), Cached: true, OnDisk: s.reg.dir != "",
		})
	default:
		httpx.WriteError(w, r, api.Errorf(api.CodeMethodNotAllowed, "%s not allowed (want GET or PUT)", r.Method))
	}
}

// handleModelDetail serves GET /v1/models/{id}: one model's serving
// version, measurement-feed counters, in-flight canary, and version
// history — the observability face of the measure→learn loop.
func (s *Server) handleModelDetail(w http.ResponseWriter, r *http.Request, id string) {
	if id == "" {
		httpx.NotFound(w, r)
		return
	}
	if !httpx.AllowMethod(w, r, http.MethodGet) {
		return
	}
	det, ok := s.reg.Describe(id)
	if !ok {
		httpx.WriteError(w, r, api.Errorf(api.CodeModelNotFound, "no model with id %s", id))
		return
	}
	det.CanaryVersion = s.canaryVersion(id)
	httpx.WriteJSON(w, http.StatusOK, det)
}
