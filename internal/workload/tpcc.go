package workload

import (
	"fmt"

	"asap/internal/sim"
)

// TPCC runs the TPC-C New Order transaction, the paper's Table 3 mix,
// against persistent tables: 10 districts, an item/stock table, and
// per-district order chains with order lines.
//
// New Order reads and bumps the district's next-order id, allocates an
// order record with 5–15 order lines, and updates the stock row of every
// line's item — the classic multi-table atomic region.
//
// Layout:
//
//	district row (one line):  next_o_id(8) | ytd(8) | orderHead(8)
//	stock row   (one line):   qty(8) | ytd(8) | order_cnt(8)
//	order:  o_id(8) | d(8) | c_id(8) | ol_cnt(8) | next(8) | info[ValueBytes]
//	        followed by ol_cnt order lines: i_id(8) | qty(8) | amount(8) (one line each)
type TPCC struct {
	districtMu [tpccDistricts]sim.Mutex
	itemMu     []sim.Mutex

	districts uint64 // base of district rows
	stock     uint64 // base of stock rows
	items     int
	vbytes    int
}

// NewTPCC returns a TPCC benchmark.
func NewTPCC() *TPCC { return &TPCC{} }

// Name implements Benchmark.
func (tp *TPCC) Name() string { return "TPCC" }

const (
	tpccDistricts = 10
	tpccCustomers = 64 // customers per district, in the reserved rows
	tpccMinLines  = 5
	tpccMaxLines  = 15
	tpccOrderHdr  = 40
)

func (tp *TPCC) districtRow(d int) uint64 { return tp.districts + uint64(d)*64 }
func (tp *TPCC) stockRow(i int) uint64    { return tp.stock + uint64(i)*64 }

// Setup implements Benchmark.
func (tp *TPCC) Setup(c *Ctx, cfg Config) {
	tp.vbytes = cfg.ValueBytes
	tp.items = cfg.InitialItems
	if tp.items < 100 {
		tp.items = 100
	}
	// The warehouse row and the customer rows are reserved but unused
	// (New Order touches neither): keeping their allocations keeps every
	// later address, and so every committed count, where it was.
	c.Alloc(64)
	tp.districts = c.Alloc(tpccDistricts * 64)
	tp.stock = c.Alloc(tp.items * 64)
	c.Alloc(tpccDistricts * tpccCustomers * 64)
	tp.itemMu = make([]sim.Mutex, 64)
	for d := 0; d < tpccDistricts; d++ {
		c.StoreU64(tp.districtRow(d), 1) // next_o_id starts at 1
	}
	for i := 0; i < tp.items; i++ {
		c.StoreU64(tp.stockRow(i), 100) // initial quantity
	}
}

// Op implements Benchmark: one New Order transaction. Strict two-phase
// locking: the district lock and every needed item-stripe lock are taken
// in a global order before the atomic region opens and held until it
// ends, so conflicting regions serialize fully — atomic regions nested
// inside critical sections, as §4.2 requires. (Acquiring item locks
// mid-region in arbitrary order would let two open regions depend on each
// other in a cycle, which no commit order could satisfy.)
func (tp *TPCC) Op(c *Ctx, i int) {
	d := c.Rng.Intn(tpccDistricts)
	nLines := tpccMinLines + c.Rng.Intn(tpccMaxLines-tpccMinLines+1)
	cid := c.Rng.Uint64() % 3000
	items := make([]int, nLines)
	for l := range items {
		items[l] = c.Rng.Intn(tp.items)
	}
	stripes := tp.stripesFor(items)

	mu := &tp.districtMu[d]
	mu.Lock(c.T)
	for _, s := range stripes {
		tp.itemMu[s].Lock(c.T)
	}
	c.Begin()

	row := tp.districtRow(d)
	oid := c.LoadU64(row)
	c.StoreU64(row, oid+1)

	order := c.Alloc(tpccOrderHdr + tp.vbytes + nLines*64)
	c.StoreU64(order, oid)
	c.StoreU64(order+8, uint64(d))
	c.StoreU64(order+16, cid)
	c.StoreU64(order+24, uint64(nLines))
	c.StoreU64(order+32, c.LoadU64(row+16)) // link previous order
	c.StoreU64(row+16, order)
	c.FillValue(order+tpccOrderHdr, tp.vbytes, uint64(i))

	total := uint64(0)
	olBase := order + tpccOrderHdr + uint64(tp.vbytes)
	for l := 0; l < nLines; l++ {
		item := items[l]
		qty := uint64(1 + c.Rng.Intn(10))

		srow := tp.stockRow(item)
		sq := c.LoadU64(srow)
		if sq >= qty+10 {
			sq -= qty
		} else {
			sq = sq - qty + 91
		}
		c.StoreU64(srow, sq)
		c.StoreU64(srow+8, c.LoadU64(srow+8)+qty)
		c.StoreU64(srow+16, c.LoadU64(srow+16)+1)

		ol := olBase + uint64(l)*64
		c.StoreU64(ol, uint64(item))
		c.StoreU64(ol+8, qty)
		amount := qty * uint64(10+item%90)
		c.StoreU64(ol+16, amount)
		total += amount
	}
	c.StoreU64(row+8, c.LoadU64(row+8)+total) // district ytd

	c.End()
	for l := len(stripes) - 1; l >= 0; l-- {
		tp.itemMu[stripes[l]].Unlock(c.T)
	}
	mu.Unlock(c.T)
}

// stripesFor returns the sorted, deduplicated item-stripe indices for the
// transaction's items: the global lock acquisition order.
func (tp *TPCC) stripesFor(items []int) []int {
	seen := make(map[int]bool, len(items))
	var out []int
	for _, it := range items {
		s := it % len(tp.itemMu)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Check implements Benchmark: each district's order chain length equals
// next_o_id - 1, order ids are dense descending, and every order's line
// count and amounts reconcile with the district ytd total.
func (tp *TPCC) Check(read func(uint64) uint64) string {
	for d := 0; d < tpccDistricts; d++ {
		row := tp.districtRow(d)
		next := read(row)
		ytd := read(row + 8)
		want := next - 1
		var sum uint64
		n := uint64(0)
		expect := want
		for cur := read(row + 16); cur != 0; cur = read(cur + 32) {
			n++
			oid := read(cur)
			if oid != expect {
				return fmt.Sprintf("TPCC: district %d order id %d, want %d", d, oid, expect)
			}
			expect--
			nl := read(cur + 24)
			if nl < tpccMinLines || nl > tpccMaxLines {
				return fmt.Sprintf("TPCC: order %d has %d lines", oid, nl)
			}
			olBase := cur + tpccOrderHdr + uint64(tp.vbytes)
			for l := uint64(0); l < nl; l++ {
				sum += read(olBase + l*64 + 16)
			}
		}
		if n != want {
			return fmt.Sprintf("TPCC: district %d has %d orders, want %d", d, n, want)
		}
		if sum != ytd {
			return fmt.Sprintf("TPCC: district %d ytd %d != line total %d", d, ytd, sum)
		}
	}
	return ""
}
