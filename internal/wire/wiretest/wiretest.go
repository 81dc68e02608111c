// Package wiretest holds what tests of several packages share about the wire
// format: one message of every kind, each variable-length field filled.
package wiretest

import "zeus/internal/wire"

// AllMessages returns one populated instance of every message kind, freshly
// built on each call. wire's TestMarshalRoundTripAllKinds fails when a kind is
// missing.
func AllMessages() []wire.Msg {
	data := []byte("the quick brown fox")
	ts := wire.OTS{Ver: 9, Node: 1}
	tx := wire.TxID{Pipe: wire.PipeID{Node: 2, Worker: 5}, Local: 99}
	return []wire.Msg{
		&wire.OwnReq{ReqID: 7, Obj: 42, Requester: 3, Mode: wire.AcquireOwner, Epoch: 2, Target: wire.BitmapOf(1, 2), Shard: 13, Holds: 10},
		&wire.OwnInv{ReqID: 7, Obj: 42, TS: ts, Epoch: 2, Requester: 3, Driver: 0,
			Mode: wire.AcquireReader, NewReplicas: wire.ReplicaSet{Owner: 3, Readers: wire.BitmapOf(1)},
			PrevOwner: 1, Arbiters: wire.BitmapOf(0, 1, 2), Recovery: true, Holds: 10},
		&wire.OwnAck{ReqID: 7, Obj: 42, TS: ts, Epoch: 2, From: 1,
			Arbiters: wire.BitmapOf(0, 1, 2), NewReplicas: wire.ReplicaSet{Owner: 3, Readers: wire.BitmapOf(1)},
			Mode: wire.AcquireOwner, HasData: true, TVersion: 11, Data: data},
		&wire.OwnVal{ReqID: 7, Obj: 42, TS: ts, Epoch: 2},
		&wire.OwnNack{ReqID: 7, Obj: 42, Epoch: 2, From: 1, Reason: wire.NackPendingCommit},
		&wire.OwnResp{ReqID: 7, Obj: 42, TS: ts, Epoch: 2, Driver: 0,
			Arbiters: wire.BitmapOf(0, 1), NewReplicas: wire.ReplicaSet{Owner: 3}, Mode: wire.AcquireOwner,
			HasData: true, TVersion: 4, Data: data},
		&wire.CommitInv{Tx: tx, Epoch: 3,
			Followers: wire.BitmapOf(0, 1), PrevVal: true, Replay: true,
			Updates: []wire.Update{{Obj: 1, Version: 2, Data: data}, {Obj: 9, Version: 1, Data: nil}}},
		&wire.CommitAck{Tx: tx, Epoch: 3, From: 1},
		&wire.CommitVal{Tx: tx, Epoch: 3},
		&wire.BReadReq{ReqID: 5, Obj: 10},
		&wire.BResp{ReqID: 5, OK: true, Ver: 3, Data: data},
		&wire.BLock{ReqID: 5, Items: []wire.BVer{{Obj: 1, Ver: 2}, {Obj: 3, Ver: 4}}},
		&wire.BValidate{ReqID: 5, Items: []wire.BVer{{Obj: 8, Ver: 0}}},
		&wire.BBackup{ReqID: 5, Updates: []wire.Update{{Obj: 1, Version: 3, Data: data}}},
		&wire.BCommit{ReqID: 5, Updates: []wire.Update{{Obj: 1, Version: 3, Data: data}}},
		&wire.BAbort{ReqID: 5, Objs: []wire.ObjectID{1, 2, 3}},
		&wire.VSPropose{Cmd: wire.VSCommand{Op: wire.VSJoin, Node: 3, Epoch: 0, Addr: "127.0.0.1:7003"}},
		&wire.VSPropose{Cmd: wire.VSCommand{Op: wire.VSFail, Node: 3, Epoch: 4}},
		&wire.VSAccept{Ballot: 4, Phase: wire.VSPhasePromise,
			Cmd:    wire.VSCommand{Op: wire.VSLeave, Node: 2},
			State:  wire.VSState{Index: 9, Epoch: 5, Live: wire.BitmapOf(0, 1), Barrier: wire.BitmapOf(0), BarrierEpoch: 5},
			HasAcc: true, AccBallot: 3, AccCmd: wire.VSCommand{Op: wire.VSJoin, Node: 6},
			AccState: wire.VSState{Index: 10, Epoch: 6, Live: wire.BitmapOf(0, 1, 6)}},
		&wire.VSCommit{Ballot: 4, Cmd: wire.VSCommand{Op: wire.VSRecoveryDone, Node: 1, Epoch: 5},
			State: wire.VSState{Index: 11, Epoch: 5, Live: wire.BitmapOf(0, 1),
				Placement: wire.DirPlacement{Epoch: 5, Degree: 2, Shards: []wire.Bitmap{wire.BitmapOf(0, 1), wire.BitmapOf(0, 1)}},
				Addrs:     []wire.NodeAddr{{Node: 0, Addr: "10.0.0.1:7000"}, {Node: 1, Addr: "10.0.0.2:7000"}},
				Joined:    []wire.NodeEpoch{{Node: 1, Epoch: 4}}},
			BarrierDone: true, DoneEpoch: 5},
		&wire.VSLeaseMsg{Nodes: wire.BitmapOf(2, 5), Heartbeat: true, Ballot: 7},
		&wire.VSQuery{Resp: true, Ballot: 7, State: wire.VSState{Index: 3, Epoch: 2, Live: wire.BitmapOf(0, 1, 2),
			Placement: wire.ComputePlacement(4, 3, 2, wire.BitmapOf(0, 1, 2))}},
		&wire.DirPull{Shards: []uint32{9, 11, 12}, PlacementEpoch: 3, From: 4},
		&wire.DirState{Shard: 9, PlacementEpoch: 3, From: 2, Entries: []wire.DirEntry{
			{Obj: 42, TS: ts, Replicas: wire.ReplicaSet{Owner: 3, Readers: wire.BitmapOf(1, 2)}, Pending: true},
			{Obj: 43, TS: wire.OTS{Ver: 2}, Replicas: wire.ReplicaSet{Owner: wire.NoNode}},
		}},
		&wire.SafeTime{From: 2, Epoch: 5, WM: 987654321},
		&wire.ObsPull{From: 3, Full: true},
		&wire.ObsState{From: 1, Epoch: 4, Commits: 5, Incidents: 1, Metrics: []byte("zeus_commits_total 5\n")},
	}
}
