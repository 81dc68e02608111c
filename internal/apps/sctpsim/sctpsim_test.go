package sctpsim

import (
	"testing"

	"zeus/internal/cluster"
	"zeus/internal/wire"
)

func zeusAssoc(t *testing.T, degree int) *Assoc {
	t.Helper()
	opts := cluster.DefaultOptions(2)
	opts.Degree = degree
	c := cluster.New(opts)
	t.Cleanup(c.Close)
	cfg := DefaultConfig()
	cfg.StateSize = 512 // keep test payloads small
	c.SeedAt(wire.ObjectID(1), wire.NodeID(0), InitialState(cfg).Encode(cfg.StateSize))
	return New(cfg, c.Node(0).DB(), 1, 0)
}

func TestStateEncodeDecodeRoundTrip(t *testing.T) {
	s := State{NextTSN: 10, CumAck: 5, Cwnd: 32, SSThresh: 16, InFlight: 5,
		RTOMillis: 400, Retrans: 2, BytesSent: 7000, BytesAck: 3500}
	got, err := DecodeState(s.Encode(6800))
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip: %+v vs %+v", got, s)
	}
	if _, err := DecodeState(make([]byte, 10)); err == nil {
		t.Fatal("short state accepted")
	}
}

func TestSendDataRespectsCwnd(t *testing.T) {
	a := zeusAssoc(t, 2)
	// InitialCwnd = 10: the 11th unacked send must refuse.
	for i := 0; i < 10; i++ {
		ok, err := a.SendData(150)
		if err != nil || !ok {
			t.Fatalf("send %d: ok=%v err=%v", i, ok, err)
		}
	}
	ok, err := a.SendData(150)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("send beyond cwnd succeeded")
	}
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.InFlight != 10 || st.NextTSN != 11 {
		t.Fatalf("state after window fill: %+v", st)
	}
}

func TestSackAdvancesAndGrowsWindow(t *testing.T) {
	a := zeusAssoc(t, 2)
	for i := 0; i < 4; i++ {
		if _, err := a.SendData(150); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.RecvSack(4, 150); err != nil {
		t.Fatal(err)
	}
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.InFlight != 0 || st.CumAck != 4 {
		t.Fatalf("after sack: %+v", st)
	}
	if st.Cwnd <= 10 {
		t.Fatalf("slow start did not grow cwnd: %d", st.Cwnd)
	}
	if st.BytesAck != 600 {
		t.Fatalf("bytes acked = %d", st.BytesAck)
	}
}

func TestTimerExpiryBacksOff(t *testing.T) {
	a := zeusAssoc(t, 2)
	if err := a.TimerExpiry(); err != nil {
		t.Fatal(err)
	}
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.RTOMillis != 400 || st.Retrans != 1 {
		t.Fatalf("after timeout: %+v", st)
	}
	if st.SSThresh < 2 {
		t.Fatalf("ssthresh floor violated: %d", st.SSThresh)
	}
}

func TestTransferCompletes(t *testing.T) {
	a := zeusAssoc(t, 2)
	res, err := a.Transfer(100, 150)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 100 || res.Bytes != 15000 {
		t.Fatalf("transfer: %+v", res)
	}
	if res.Sacks == 0 {
		t.Fatal("no sacks during transfer")
	}
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesSent != 15000 {
		t.Fatalf("bytes sent = %d", st.BytesSent)
	}
}

func TestTransferLargePacketsClippedToMTU(t *testing.T) {
	a := zeusAssoc(t, 2)
	res, err := a.Transfer(10, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 10*1500 {
		t.Fatalf("MTU clipping failed: %d bytes", res.Bytes)
	}
}

func TestReplicationSurvivesStateOnBackup(t *testing.T) {
	opts := cluster.DefaultOptions(2)
	opts.Degree = 2
	c := cluster.New(opts)
	t.Cleanup(c.Close)
	cfg := DefaultConfig()
	cfg.StateSize = 512
	c.SeedAt(wire.ObjectID(1), wire.NodeID(0), InitialState(cfg).Encode(cfg.StateSize))
	a := New(cfg, c.Node(0).DB(), 1, 0)
	if _, err := a.Transfer(20, 150); err != nil {
		t.Fatal(err)
	}
	if !c.Node(0).CommitEngine().WaitIdle(cfgTimeout) {
		t.Fatal("replication stalled")
	}
	// The backup replica holds the association state: a failover peer
	// could resume from here.
	o, ok := c.Node(1).Store().Get(wire.ObjectID(1))
	if !ok {
		t.Fatal("no replica on backup")
	}
	o.Mu.Lock()
	st, err := DecodeState(o.DataLocked())
	o.Mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesSent != 20*150 {
		t.Fatalf("backup state stale: %+v", st)
	}
}
