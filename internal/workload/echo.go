package workload

import (
	"fmt"

	"asap/internal/sim"
)

// Echo (EO) models the Echo scalable key-value store for persistent
// memory: a hash directory whose chains hold immutable version records —
// a put prepends a new record with a bumped version number rather than
// updating in place, so readers always see a complete version. Record
// layout:
//
//	key(8) | next(8) | version(8) | value[ValueBytes]
type Echo struct {
	stripes  []sim.Mutex
	buckets  uint64
	nbuckets uint64
	putCells uint64 // per-stripe put counters, one line apart
	vbytes   int
	keyspace uint64
}

// NewEcho returns an EO benchmark.
func NewEcho() *Echo { return &Echo{} }

// Name implements Benchmark.
func (e *Echo) Name() string { return "EO" }

const eoRecHdr = 24

func (e *Echo) bucketOf(key uint64) uint64 { return (key * 0x9e3779b9) % e.nbuckets }

// Setup implements Benchmark.
func (e *Echo) Setup(c *Ctx, cfg Config) {
	e.vbytes = cfg.ValueBytes
	e.keyspace = uint64(cfg.InitialItems) * 2
	e.nbuckets = uint64(cfg.InitialItems)
	if e.nbuckets == 0 {
		e.nbuckets = 16
	}
	e.buckets = c.Alloc(int(e.nbuckets) * 8)
	e.stripes = make([]sim.Mutex, 16)
	e.putCells = c.Alloc(64 * len(e.stripes))
	for i := 0; i < cfg.InitialItems; i++ {
		e.put(c, c.Rng.Uint64()%e.keyspace, uint64(i))
	}
}

// get returns the latest version for key (0 if absent).
func (e *Echo) get(c *Ctx, key uint64) uint64 {
	cur := c.LoadU64(e.buckets + 8*e.bucketOf(key))
	for cur != 0 {
		if c.LoadU64(cur) == key {
			return c.LoadU64(cur + 16)
		}
		cur = c.LoadU64(cur + 8)
	}
	return 0
}

// put prepends a new version record for key.
func (e *Echo) put(c *Ctx, key, tag uint64) {
	head := e.buckets + 8*e.bucketOf(key)
	ver := e.get(c, key) + 1
	rec := c.Alloc(eoRecHdr + e.vbytes)
	c.StoreU64(rec, key)
	c.StoreU64(rec+8, c.LoadU64(head))
	c.StoreU64(rec+16, ver)
	c.FillValue(rec+eoRecHdr, e.vbytes, tag)
	c.StoreU64(head, rec)
	cnt := e.putCells + 64*(e.bucketOf(key)%uint64(len(e.stripes)))
	c.StoreU64(cnt, c.LoadU64(cnt)+1)
}

// Op implements Benchmark: the Echo access mix, 70% puts, 30% gets.
func (e *Echo) Op(c *Ctx, i int) {
	key := c.Key(e.keyspace)
	mu := &e.stripes[e.bucketOf(key)%uint64(len(e.stripes))]
	mu.Lock(c.T)
	if c.Rng.Intn(10) < 7 {
		c.Begin()
		e.put(c, key, uint64(i))
		c.End()
	} else {
		c.Begin()
		e.get(c, key)
		c.End()
	}
	mu.Unlock(c.T)
}

// Check implements Benchmark: per key the newest version equals that
// key's record count (versions are dense), and the stripe put counters
// sum to the total record count.
func (e *Echo) Check(read func(uint64) uint64) string {
	records := uint64(0)
	latest := map[uint64]uint64{}
	perKey := map[uint64]uint64{}
	for b := uint64(0); b < e.nbuckets; b++ {
		cur := read(e.buckets + 8*b)
		for cur != 0 {
			key := read(cur)
			ver := read(cur + 16)
			if _, ok := latest[key]; !ok {
				latest[key] = ver // first record in chain = newest
			}
			perKey[key]++
			records++
			if records > 1<<24 {
				return "EO: cycle in chain"
			}
			cur = read(cur + 8)
		}
	}
	for key, n := range perKey {
		if latest[key] != n {
			return fmt.Sprintf("EO: key %d newest version %d != record count %d", key, latest[key], n)
		}
	}
	var puts uint64
	for s := 0; s < len(e.stripes); s++ {
		puts += read(e.putCells + 64*uint64(s))
	}
	if puts != records {
		return fmt.Sprintf("EO: put counters %d != records %d", puts, records)
	}
	return ""
}
