package core

import (
	"crypto/rand"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"funcx/internal/netlat"
	"funcx/internal/sdk"
	"funcx/internal/service"
	"funcx/internal/shard"
	"funcx/internal/types"
)

// ShardedFabricConfig parameterizes a multi-shard federation: N
// shared-nothing service shards (each a full Fabric with its own
// registry, store, event bus, and forwarders) behind one
// consistent-hash ring, all sharing a token-signing key so any shard
// authenticates any client — funcX's load-balanced web tier, bootable
// in process.
type ShardedFabricConfig struct {
	// Shards is the shard count (default 3).
	Shards int
	// Service is the per-shard service template; ShardID, Ring, and
	// AuthKey are filled in per shard.
	Service service.Config
	// Ring optionally tunes the consistent-hash ring (VirtualNodes,
	// Seed, LoadFactor); the shard list is filled in from the booted
	// listeners.
	Ring shard.Config
	// DataDir, when set, makes every shard durable: shard i journals
	// to <DataDir>/shard-<i> (WAL + snapshots), and RestartShard
	// recovers the dead shard's full control-plane state from it
	// instead of booting empty.
	DataDir string
	// ClientLat optionally injects client↔service WAN latency into
	// every SDK built by the fabric's Client helpers.
	ClientLat *netlat.Link
}

// ShardedFabric is a running multi-shard funcX federation.
type ShardedFabric struct {
	cfg     ShardedFabricConfig
	ringCfg shard.Config
	ring    *shard.Ring
	authKey []byte

	mu     sync.Mutex
	shards []*Fabric
	addrs  []string
}

// shardIDOf names shard i; ids are stable across kill/restart.
func shardIDOf(i int) shard.ID { return shard.ID(fmt.Sprintf("shard-%d", i)) }

// NewShardedFabric boots N service shards. Every shard loads the same
// ring config (differing only in self) and the same auth signing key,
// so any shard is a valid front door for any request: wrong-shard
// arrivals are proxied or redirected by the service's cross-shard
// gateway.
func NewShardedFabric(cfg ShardedFabricConfig) (*ShardedFabric, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	key := cfg.Service.AuthKey
	if len(key) == 0 {
		key = make([]byte, 32)
		if _, err := rand.Read(key); err != nil {
			return nil, fmt.Errorf("core: generating shared auth key: %w", err)
		}
	}
	// Bind every listener first: the ring config needs every shard's
	// URL before any shard's service boots.
	lns := make([]net.Listener, cfg.Shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range lns[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("core: listen shard %d: %w", i, err)
		}
		lns[i] = ln
	}
	ringCfg := cfg.Ring
	ringCfg.Shards = make([]shard.Info, cfg.Shards)
	for i, ln := range lns {
		ringCfg.Shards[i] = shard.Info{ID: shardIDOf(i), BaseURL: "http://" + ln.Addr().String()}
	}
	ring, err := shard.NewRing(ringCfg)
	if err != nil {
		for _, ln := range lns {
			ln.Close()
		}
		return nil, err
	}
	sf := &ShardedFabric{
		cfg: cfg, ringCfg: ringCfg, ring: ring, authKey: key,
		shards: make([]*Fabric, cfg.Shards),
		addrs:  make([]string, cfg.Shards),
	}
	for i, ln := range lns {
		sf.addrs[i] = ln.Addr().String()
		fab, err := sf.bootShard(i, ln)
		if err != nil {
			for _, prev := range sf.shards[:i] {
				prev.Close()
			}
			for _, rest := range lns[i:] {
				rest.Close()
			}
			return nil, err
		}
		sf.shards[i] = fab
	}
	return sf, nil
}

// bootShard builds shard i's service config and fabric on a bound
// listener.
func (sf *ShardedFabric) bootShard(i int, ln net.Listener) (*Fabric, error) {
	dir, err := shard.NewDirectory(sf.ringCfg, shardIDOf(i))
	if err != nil {
		return nil, err
	}
	scfg := sf.cfg.Service
	scfg.ShardID = shardIDOf(i)
	scfg.Ring = dir
	scfg.AuthKey = sf.authKey
	if sf.cfg.DataDir != "" {
		scfg.DataDir = filepath.Join(sf.cfg.DataDir, string(shardIDOf(i)))
	}
	return newFabricOn(ln, FabricConfig{Service: scfg, ClientLat: sf.cfg.ClientLat})
}

// N returns the shard count.
func (sf *ShardedFabric) N() int { return len(sf.addrs) }

// Shard returns shard i's fabric (nil while killed).
func (sf *ShardedFabric) Shard(i int) *Fabric {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	return sf.shards[i]
}

// Shards snapshots the live shard fabrics (killed slots are nil).
func (sf *ShardedFabric) Shards() []*Fabric {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	return append([]*Fabric(nil), sf.shards...)
}

// OwnerIndex returns the index of the shard owning a ring key.
func (sf *ShardedFabric) OwnerIndex(key string) int {
	owner := sf.ring.Owner(key)
	for i := range sf.addrs {
		if shardIDOf(i) == owner {
			return i
		}
	}
	return 0
}

// Client builds an SDK client for uid against the user's *owner*
// shard (the ring assigns users to shards too — their home for token
// minting). Any shard would work as a front door; see ClientVia.
func (sf *ShardedFabric) Client(uid types.UserID) *sdk.Client {
	return sf.ClientVia(sf.OwnerIndex(shard.UserKey(uid)), uid)
}

// ClientVia builds an SDK client for uid entering through shard i —
// including shards that own none of the user's targets, which is the
// point: the gateway makes every shard a valid front door. The token
// is minted by shard i and verifies everywhere (shared signing key).
func (sf *ShardedFabric) ClientVia(i int, uid types.UserID) *sdk.Client {
	fab := sf.Shard(i)
	if fab == nil {
		panic(fmt.Sprintf("core: shard %d is killed; restart it before building clients", i))
	}
	return fab.Client(uid)
}

// KillShard abruptly tears shard i down — service, endpoints, agents,
// HTTP listener — simulating the loss of one web-tier instance. The
// surviving shards keep serving their keys; requests for the dead
// shard's keys fail at the gateway (502) until RestartShard.
func (sf *ShardedFabric) KillShard(i int) error {
	sf.mu.Lock()
	fab := sf.shards[i]
	sf.shards[i] = nil
	sf.mu.Unlock()
	if fab == nil {
		return fmt.Errorf("core: shard %d already killed", i)
	}
	fab.Close()
	return nil
}

// RestartShard boots shard i again on its original address: same
// shard id, ring config, and auth key, so the ring's ownership
// assignment is unchanged (ring determinism across restarts) and
// outstanding client tokens keep working.
//
// Without a DataDir the replacement is fresh and empty — shared
// nothing — so endpoints, groups, and functions must be re-registered,
// exactly like a stateless web-tier instance rescheduled by an
// orchestrator. With a DataDir the shard recovers its registry and
// task records (with unread results) from its journal and rebuilds
// each endpoint queue from the live records; only agents must
// re-attach (Fabric.AttachEndpoint), since their connections and
// client secrets are runtime state the crash destroyed.
func (sf *ShardedFabric) RestartShard(i int) (*Fabric, error) {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.shards[i] != nil {
		return nil, fmt.Errorf("core: shard %d is still running", i)
	}
	// The old listener may take a moment to fully release its port.
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 40; attempt++ {
		ln, err = net.Listen("tcp", sf.addrs[i])
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("core: rebinding shard %d on %s: %w", i, sf.addrs[i], err)
	}
	fab, err := sf.bootShard(i, ln)
	if err != nil {
		ln.Close()
		return nil, err
	}
	sf.shards[i] = fab
	return fab, nil
}

// DrainShard gracefully removes shard i's ownership: the service
// hands every endpoint, group, and queued task to the ring's next
// owners (see service.Drain), and the fabric re-homes each drained
// endpoint's agent stack to its importer shard. The drained shard
// keeps running as a pure front door — its gateway forwards moved
// keys to the importers — so clients holding its address lose
// nothing; KillShard it afterwards for a full departure.
func (sf *ShardedFabric) DrainShard(i int) (*service.DrainReport, error) {
	fab := sf.Shard(i)
	if fab == nil {
		return nil, fmt.Errorf("core: shard %d is killed", i)
	}
	report, err := fab.Service.Drain()
	if err != nil {
		return nil, err
	}
	// Re-home the agents: each moved endpoint record now lives on its
	// importer; boot a fresh agent stack there and retire the old one.
	for _, h := range fab.takeEndpoints() {
		opts := h.opts
		h.Stop()
		dstID := fab.Service.KeyOwnerID(shard.EndpointKey(h.ID))
		dest := sf.fabricOf(dstID)
		if dest == nil {
			return report, fmt.Errorf("core: endpoint %s handed to unknown or dead shard %s", h.ID, dstID)
		}
		if _, err := dest.AttachEndpoint(h.ID, opts); err != nil {
			return report, fmt.Errorf("core: re-homing endpoint %s on %s: %w", h.ID, dstID, err)
		}
	}
	return report, nil
}

// fabricOf returns the live fabric running the given shard id (nil if
// killed or unknown).
func (sf *ShardedFabric) fabricOf(id shard.ID) *Fabric {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	for i, fab := range sf.shards {
		if shardIDOf(i) == id {
			return fab
		}
	}
	return nil
}

// Close tears every live shard down.
func (sf *ShardedFabric) Close() {
	sf.mu.Lock()
	shards := append([]*Fabric(nil), sf.shards...)
	for i := range sf.shards {
		sf.shards[i] = nil
	}
	sf.mu.Unlock()
	for _, fab := range shards {
		if fab != nil {
			fab.Close()
		}
	}
}
