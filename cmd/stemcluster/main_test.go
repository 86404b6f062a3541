package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestRunServesCluster boots a tiny supervised cluster, waits for the addr
// file, drives it through the routing client, and shuts it down cleanly.
func TestRunServesCluster(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "addrs")
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		errC <- run(runConfig{
			nodes: 3, capacity: 512, seed: 21, replication: 1,
			heartbeat: 10 * time.Millisecond,
			addrFile:  addrFile,
		}, stop)
	}()

	var addrs []string
	deadline := time.Now().Add(5 * time.Second)
	for {
		// The supervisor's WriteFile creates, then writes: empty is "not yet".
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addrs = strings.Split(strings.TrimSpace(string(b)), ",")
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("addr file never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(addrs) != 3 {
		t.Fatalf("addr file lists %d nodes, want 3", len(addrs))
	}

	cl, err := cluster.NewClient(cluster.Config{Addrs: addrs, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("smoke-%d", i)
		if err := cl.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("smoke-%d", i)
		v, found, err := cl.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !found || string(v) != k {
			t.Fatalf("key %q round trip = (%q, %v)", k, v, found)
		}
	}

	close(stop)
	if err := <-errC; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunMembershipOrchestration boots the supervisor with the membership
// tier plus a scripted kill and join, lets the failure detector fire, and
// verifies the whole lifecycle shuts down cleanly — the orchestration-path
// smoke for -replication/-kill-after/-join-after.
func TestRunMembershipOrchestration(t *testing.T) {
	if testing.Short() {
		t.Skip("orchestration smoke runs a live supervisor")
	}
	addrFile := filepath.Join(t.TempDir(), "addrs")
	stop := make(chan struct{})
	errC := make(chan error, 1)
	go func() {
		errC <- run(runConfig{
			nodes: 3, capacity: 512, seed: 21,
			addrFile:    addrFile,
			replication: 2, heartbeat: 10 * time.Millisecond, suspect: 2,
			killAfter: 100 * time.Millisecond, killNode: 1,
			joinAfter: 200 * time.Millisecond,
		}, stop)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("addr file never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Give the scripted kill, the detector's failover, and the scripted
	// join time to run, then ask for a clean shutdown.
	time.Sleep(600 * time.Millisecond)
	close(stop)
	if err := <-errC; err != nil {
		t.Fatalf("run with membership: %v", err)
	}
}

// TestRunRejectsReplicationBelowOne: -replication 0 is an error, not a
// silent default — the manager would otherwise read 0 as its default of 2.
func TestRunRejectsReplicationBelowOne(t *testing.T) {
	err := run(runConfig{nodes: 3, heartbeat: time.Second}, nil)
	if err == nil || !strings.Contains(err.Error(), "-replication") {
		t.Fatalf("run with replication 0 = %v, want a -replication error", err)
	}
}
