package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/fec"
	"repro/internal/signal"
)

// runPacketAt runs packet idx alone, on generators checked out for it
// only: the serial reference RunPacketBatch must reproduce element for
// element.
func (s *Session) runPacketAt(idx int) (PacketResult, error) {
	rng := signal.RandPool.Get()
	defer signal.RandPool.Put(rng)
	var crng *rand.Rand
	if s.cfg.ContentSeed != 0 {
		crng = signal.RandPool.Get()
		defer signal.RandPool.Put(crng)
	}
	return s.runPacketAtWith(idx, rng, crng)
}

// batchIdentityCases covers every decode mode the batch path must preserve:
// all three radios, dual and single receiver, and the quaternary WiFi
// scheme.
func batchIdentityCases(t *testing.T) map[string]Config {
	t.Helper()
	wifi := DefaultConfig(WiFi, 10)
	wifi.Seed = 99
	wifi.PayloadSize = 400

	quat := DefaultConfig(WiFi, 8)
	quat.Seed = 41
	quat.PayloadSize = 400
	quat.WiFiRateMbps = 12
	quat.Quaternary = true

	wifiSingle := DefaultConfig(WiFi, 8)
	wifiSingle.Seed = 17
	wifiSingle.PayloadSize = 400
	wifiSingle.ReceiverMode = SingleReceiver

	zb := DefaultConfig(ZigBee, 8)
	zb.Seed = 7

	zbSingle := DefaultConfig(ZigBee, 6)
	zbSingle.Seed = 23
	zbSingle.ReceiverMode = SingleReceiver

	bt := DefaultConfig(Bluetooth, 6)
	bt.Seed = 13

	btSingle := DefaultConfig(Bluetooth, 5)
	btSingle.Seed = 29
	btSingle.ReceiverMode = SingleReceiver

	return map[string]Config{
		"wifi":      wifi,
		"wifi-quat": quat,
		"wifi-sing": wifiSingle,
		"zigbee":    zb,
		"zb-single": zbSingle,
		"bluetooth": bt,
		"bt-single": btSingle,
	}
}

// TestRunPacketBatchMatchesSerialLoop is the batch path's bit-identity
// contract: RunPacketBatch(start, n) must return, element for element, the
// exact PacketResults the serial per-packet loop produces over the same
// indices — every field including decoded bits.
func TestRunPacketBatchMatchesSerialLoop(t *testing.T) {
	const packets = 3
	for name, cfg := range batchIdentityCases(t) {
		t.Run(name, func(t *testing.T) {
			s, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			serial := make([]PacketResult, packets)
			for i := range serial {
				pr, err := s.runPacketAt(i)
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = pr
			}
			batch, err := s.RunPacketBatch(0, packets)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				if !reflect.DeepEqual(serial[i], batch[i]) {
					t.Errorf("packet %d: batch %+v != serial %+v", i, batch[i], serial[i])
				}
			}
			// A batch starting mid-timeline must reproduce the same packets.
			tail, err := s.RunPacketBatch(1, packets-1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tail {
				if !reflect.DeepEqual(serial[i+1], tail[i]) {
					t.Errorf("offset batch packet %d: %+v != serial %+v", i+1, tail[i], serial[i+1])
				}
			}
		})
	}
}

// TestRunBatchSizeInvariance pins that the aggregate result does not depend
// on how the packet range is split: RunPacketBatch ranges of every size —
// including one larger than the packet count — accumulate to Run's result,
// which also matches RunParallel's batch-sharded pool.
func TestRunBatchSizeInvariance(t *testing.T) {
	cfg := DefaultConfig(ZigBee, 8)
	cfg.Seed = 31
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const packets = 5
	ref, err := s.Run(packets)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, 3, packets, packets + 7} {
		var got SessionResult
		for lo := 0; lo < packets; lo += batch {
			prs, err := s.RunPacketBatch(lo, min(batch, packets-lo))
			if err != nil {
				t.Fatalf("batch=%d: %v", batch, err)
			}
			for _, pr := range prs {
				got.accumulate(pr, cfg.InterPacketGap)
			}
		}
		if got != ref {
			t.Errorf("batch=%d: %+v != Run %+v", batch, got, ref)
		}
	}
	par, err := s.RunParallel(packets, 3)
	if err != nil {
		t.Fatal(err)
	}
	if par != ref {
		t.Errorf("RunParallel %+v != Run %+v", par, ref)
	}
}

// TestRunPacketBatchCoded pins batch identity through the RS-coded path,
// whose per-packet decode carries extra derived fields.
func TestRunPacketBatchCoded(t *testing.T) {
	cfg := DefaultConfig(ZigBee, 6)
	cfg.Seed = 3
	cfg.Coding = &fec.Config{N: 15, K: 9}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const packets = 3
	serial := make([]PacketResult, packets)
	for i := range serial {
		pr, err := s.runPacketAt(i)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = pr
	}
	batch, err := s.RunPacketBatch(0, packets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], batch[i]) {
			t.Errorf("coded packet %d: batch != serial", i)
		}
	}
}

// TestRunPacketBatchRejectsNegative holds all three session runners to
// one rule: a negative packet count is an error, not an empty run or a
// panic.
func TestRunPacketBatchRejectsNegative(t *testing.T) {
	s, err := NewSession(DefaultConfig(ZigBee, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunPacketBatch(0, -1); err == nil {
		t.Fatal("negative batch size must error")
	}
	if res, err := s.Run(-1); err == nil {
		t.Fatalf("Run(-1) = %+v, nil; want an error", res)
	}
	for _, workers := range []int{1, 2} {
		if res, err := s.RunParallel(-1, workers); err == nil {
			t.Fatalf("RunParallel(-1, %d) = %+v, nil; want an error", workers, res)
		}
	}
}
