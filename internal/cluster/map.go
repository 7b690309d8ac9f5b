// Package cluster distributes darwind across processes: a static
// cluster map assigns reference shards to workers by rendezvous
// hashing with N-way replication, and a stateless router
// (cmd/darwin-router) scatters read batches to shard owners, hedges
// slow replicas, and merges sub-responses bit-identically to the
// monolithic engine via internal/shard's global-coordinate merge.
//
// Rendezvous (highest-random-weight) hashing was chosen over a hash
// ring for its exact minimal-disruption property at this scale: each
// (worker, shard) pair gets an independent score, a shard's replica
// set is the top-N workers by score, and adding or removing a worker
// can only move the shards that worker scores into the top N — every
// other assignment is untouched, with no virtual-node tuning.
package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Worker names one darwind worker process in the cluster map.
type Worker struct {
	// Name is the stable identity shards are hashed against. Renaming
	// a worker reassigns shards; changing only its URL does not.
	Name string
	// URL is the worker's base URL (scheme://host:port).
	URL string
}

// Map is the static cluster topology: the worker roster and the
// replication factor. Workers and routers must agree on it — both
// sides derive shard ownership from the same rendezvous scores, so
// the map is configuration, not coordination.
type Map struct {
	Workers     []Worker
	Replication int
}

// ParseWorkers parses a "name=url,name=url" roster. URLs without a
// scheme get "http://".
func ParseWorkers(spec string) ([]Worker, error) {
	var out []Worker
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, url, ok := strings.Cut(item, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("cluster: worker %q: want name=url", item)
		}
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		out = append(out, Worker{Name: name, URL: strings.TrimRight(url, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty worker roster")
	}
	return out, nil
}

// NewMap validates a roster into a Map. Replication is clamped to the
// roster size; names must be unique (they are hash inputs).
func NewMap(workers []Worker, replication int) (*Map, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster: empty worker roster")
	}
	seen := make(map[string]bool, len(workers))
	for _, w := range workers {
		if w.Name == "" {
			return nil, fmt.Errorf("cluster: worker with empty name")
		}
		if seen[w.Name] {
			return nil, fmt.Errorf("cluster: duplicate worker name %q", w.Name)
		}
		seen[w.Name] = true
	}
	if replication < 1 {
		replication = 1
	}
	if replication > len(workers) {
		replication = len(workers)
	}
	return &Map{Workers: append([]Worker(nil), workers...), Replication: replication}, nil
}

// rendezvousScore is the highest-random-weight score of (worker,
// shard): FNV-64a over the worker name, a separator, and the shard
// index in decimal, pushed through a 64-bit finalizer. Deterministic
// across processes and Go versions — it is part of the wire contract
// between router and workers.
//
// The finalizer (murmur3's fmix64) is load-bearing: the shard digits
// are the last bytes hashed, and FNV-1a's one-multiply-per-byte
// diffusion leaves them mostly in the low bits, while ranking is
// decided by the high bits — without it, scores rank by worker name
// almost independently of shard and ownership skews wildly.
func rendezvousScore(name string, shard int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	fmt.Fprintf(h, "%d", shard)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ReplicasFor returns the indices (into Workers) of the shard's
// replica set: the Replication workers with the highest rendezvous
// scores, ordered best-first — the first entry is the shard's primary,
// the rest are hedge/failover targets. Ties break by name so the
// order is total.
func (m *Map) ReplicasFor(shard int) []int {
	idx := make([]int, len(m.Workers))
	scores := make([]uint64, len(m.Workers))
	for i := range m.Workers {
		idx[i] = i
		scores[i] = rendezvousScore(m.Workers[i].Name, shard)
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib]
		}
		return m.Workers[ia].Name < m.Workers[ib].Name
	})
	return idx[:m.Replication]
}

// replicaGroup is a set of shards held by the same set of workers,
// whatever each shard's rendezvous order among them: any member holds
// every shard of the group, so one scatter sub-request serves all of
// them and hedges or fails over as a unit. Members take turns being
// asked first (order), which spreads the group's load over the set.
type replicaGroup struct {
	replicas []int  // indices into Workers: the base order, its lowest shard's rendezvous order
	shards   []int  // ascending
	label    string // shards as "0,2", for spans and logs
	// turn counts the requests that have asked the group so far.
	turn atomic.Uint64
}

// order returns the replicas in the order request number turn tries
// them: the base order rotated left by turn, so successive requests
// ask successive members first; hedges and failovers take the rest in
// that rotated order.
func (g *replicaGroup) order(turn uint64) []int {
	k := int(turn % uint64(len(g.replicas)))
	return append(slices.Clone(g.replicas[k:]), g.replicas[:k]...)
}

// groups partitions shards 0..shards-1 by the set of workers that hold
// them, in order of each group's lowest shard.
func (m *Map) groups(shards int) []*replicaGroup {
	var out []*replicaGroup
	for s := 0; s < shards; s++ {
		replicas := m.ReplicasFor(s)
		i := slices.IndexFunc(out, func(g *replicaGroup) bool { return sameMembers(g.replicas, replicas) })
		if i < 0 {
			i = len(out)
			out = append(out, &replicaGroup{replicas: replicas})
		}
		out[i].shards = append(out[i].shards, s)
	}
	for _, g := range out {
		ids := make([]string, len(g.shards))
		for j, s := range g.shards {
			ids[j] = strconv.Itoa(s)
		}
		g.label = strings.Join(ids, ",")
	}
	return out
}

// sameMembers reports whether two replica lists, each of distinct
// workers, hold the same workers in any order.
func sameMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for _, wi := range a {
		if !slices.Contains(b, wi) {
			return false
		}
	}
	return true
}

// OwnedBy returns the sorted shard indices (out of shards total) whose
// replica sets include the named worker — what a worker's
// server.WorkerConfig.AssignShards answers at boot.
func (m *Map) OwnedBy(name string, shards int) ([]int, error) {
	found := false
	for _, w := range m.Workers {
		if w.Name == name {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: worker %q not in the roster", name)
	}
	var owned []int
	for s := 0; s < shards; s++ {
		for _, wi := range m.ReplicasFor(s) {
			if m.Workers[wi].Name == name {
				owned = append(owned, s)
				break
			}
		}
	}
	return owned, nil
}
