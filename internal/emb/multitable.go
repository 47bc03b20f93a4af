package emb

import "fmt"

// MultiTable flattens several embedding tables into one global key space,
// the way DLR inference servers address dozens or hundreds of tables behind
// one cache (paper §8.1: Criteo-TB has 26 tables, SYN-A/B have 100). Global
// key k belongs to table t iff Offset(t) <= k < Offset(t+1).
type MultiTable struct {
	Tables  []*Table
	offsets []int64 // len(Tables)+1, prefix sums of NumEntries
}

// NewMultiTable builds the flattened view. All tables must share a dtype
// (they may differ in dim).
func NewMultiTable(tables []*Table) (*MultiTable, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("emb: MultiTable needs at least one table")
	}
	m := &MultiTable{Tables: tables, offsets: make([]int64, len(tables)+1)}
	for i, t := range tables {
		if t == nil {
			return nil, fmt.Errorf("emb: MultiTable table %d is nil", i)
		}
		if t.DType != tables[0].DType {
			return nil, fmt.Errorf("emb: table %q dtype %v differs from %v", t.Name, t.DType, tables[0].DType)
		}
		m.offsets[i+1] = m.offsets[i] + t.NumEntries
	}
	return m, nil
}

// NumEntries returns the total flattened entry count.
func (m *MultiTable) NumEntries() int64 { return m.offsets[len(m.Tables)] }

// Offset returns the starting global key of table t.
func (m *MultiTable) Offset(t int) int64 { return m.offsets[t] }

// Locate maps a global key to (table index, local key).
func (m *MultiTable) Locate(key int64) (table int, local int64, err error) {
	if key < 0 || key >= m.NumEntries() {
		return 0, 0, fmt.Errorf("emb: global key %d out of range [0, %d)", key, m.NumEntries())
	}
	// Binary search over prefix sums.
	lo, hi := 0, len(m.Tables)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.offsets[mid] <= key {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, key - m.offsets[lo], nil
}

// EntryBytes returns the row size for a global key's table.
func (m *MultiTable) EntryBytes(key int64) (int, error) {
	t, _, err := m.Locate(key)
	if err != nil {
		return 0, err
	}
	return m.Tables[t].EntryBytes(), nil
}

// MaxEntryBytes returns the largest row size across tables; caches size
// their slots by this.
func (m *MultiTable) MaxEntryBytes() int {
	max := 0
	for _, t := range m.Tables {
		if eb := t.EntryBytes(); eb > max {
			max = eb
		}
	}
	return max
}

// ReadRow copies the row for a global key into dst.
func (m *MultiTable) ReadRow(key int64, dst []byte) error {
	t, local, err := m.Locate(key)
	if err != nil {
		return err
	}
	return m.Tables[t].ReadRow(local, dst)
}

// TotalBytes returns the combined virtual size of all tables.
func (m *MultiTable) TotalBytes() int64 {
	var total int64
	for _, t := range m.Tables {
		total += t.TotalBytes()
	}
	return total
}
