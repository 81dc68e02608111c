package bench

// BenchmarkInfo is one row of Table 2: the static characteristics of the
// evaluated benchmarks.
type BenchmarkInfo struct {
	Name           string
	Characteristic string
	Tables         int
	Columns        int
	TxTypes        int
	ReadTxPercent  int
}

// Table2 returns the paper's benchmark summary (Table 2).
func Table2() []BenchmarkInfo {
	return []BenchmarkInfo{
		{Name: "Handovers", Characteristic: "large contexts", Tables: 5, Columns: 36, TxTypes: 4, ReadTxPercent: 0},
		{Name: "Smallbank", Characteristic: "write-intensive", Tables: 3, Columns: 6, TxTypes: 6, ReadTxPercent: 15},
		{Name: "TATP", Characteristic: "read-intensive", Tables: 4, Columns: 51, TxTypes: 7, ReadTxPercent: 80},
		{Name: "Voter", Characteristic: "popularity skew", Tables: 3, Columns: 9, TxTypes: 1, ReadTxPercent: 0},
	}
}
