package freerider

import (
	"fmt"
	"testing"
)

// networkPins are the Fig 17 runs of both multi-tag models — RunNetwork
// under each scheme at 8 and 20 tags, with and without the chaos
// profile's round corruption, and RunNetworkFirmwareLevel at 8 tags — all
// at seed 1 over 12 rounds. Each round is {slots, successes, collisions,
// idle, corrupted (0/1)}; the duration is compared bit for bit.
var networkPins = []struct {
	name     string
	perTag   []int
	rounds   [][5]int
	duration float64
}{
	{
		name:   "framed-slotted-aloha/8",
		perTag: []int{750, 625, 1000, 500, 500, 875, 250, 500},
		rounds: [][5]int{
			{8, 5, 1, 2, 0}, {7, 4, 2, 1, 0}, {9, 2, 2, 5, 0}, {7, 6, 1, 0, 0},
			{8, 5, 1, 2, 0}, {7, 3, 2, 2, 0}, {8, 2, 3, 3, 0}, {9, 4, 2, 3, 0},
			{9, 2, 3, 4, 0}, {9, 3, 2, 4, 0}, {8, 1, 3, 4, 0}, {8, 3, 2, 3, 0},
		},
		duration: 0.6898099999999998,
	},
	{
		name:   "framed-slotted-aloha/8/chaos",
		perTag: []int{125, 375, 625, 500, 500, 500, 250, 375},
		rounds: [][5]int{
			{8, 5, 1, 2, 0}, {7, 4, 2, 1, 0}, {9, 2, 2, 5, 0}, {7, 6, 1, 0, 0},
			{8, 0, 0, 8, 1}, {2, 0, 2, 0, 0}, {5, 1, 2, 2, 0}, {6, 4, 2, 0, 0},
			{9, 2, 3, 4, 0}, {9, 2, 3, 4, 0}, {9, 0, 0, 9, 1}, {2, 0, 0, 2, 1},
		},
		duration: 0.6429299999999999,
	},
	{
		name:   "framed-slotted-aloha/20",
		perTag: []int{625, 375, 625, 625, 625, 500, 250, 125, 500, 750, 500, 250, 1000, 500, 625, 625, 625, 250, 375, 625},
		rounds: [][5]int{
			{20, 8, 4, 8, 0}, {18, 8, 5, 5, 0}, {20, 5, 6, 9, 0}, {19, 8, 5, 6, 0},
			{20, 12, 3, 5, 0}, {19, 7, 4, 8, 0}, {17, 5, 6, 6, 0}, {19, 8, 5, 6, 0},
			{20, 5, 5, 10, 0}, {17, 7, 5, 5, 0}, {19, 5, 5, 9, 0}, {17, 5, 5, 7, 0},
		},
		duration: 1.0648499999999999,
	},
	{
		name:   "framed-slotted-aloha/20/chaos",
		perTag: []int{250, 0, 375, 375, 500, 125, 250, 125, 125, 250, 250, 375, 125, 0, 375, 375, 625, 250, 250, 625},
		rounds: [][5]int{
			{20, 8, 4, 8, 0}, {18, 8, 5, 5, 0}, {20, 5, 6, 9, 0}, {19, 8, 5, 6, 0},
			{20, 0, 0, 20, 1}, {2, 0, 2, 0, 0}, {5, 1, 4, 0, 0}, {11, 4, 6, 1, 0},
			{18, 4, 7, 7, 0}, {21, 7, 4, 10, 0}, {17, 0, 0, 17, 1}, {2, 0, 0, 2, 1},
		},
		duration: 0.9124900000000001,
	},
	{
		name:   "tdm/8",
		perTag: []int{1375, 1250, 1375, 1375, 1250, 1500, 1375, 1500},
		rounds: [][5]int{
			{8, 7, 0, 1, 0}, {8, 8, 0, 0, 0}, {8, 8, 0, 0, 0}, {8, 8, 0, 0, 0},
			{8, 7, 0, 1, 0}, {8, 8, 0, 0, 0}, {8, 7, 0, 1, 0}, {8, 7, 0, 1, 0},
			{8, 7, 0, 1, 0}, {8, 6, 0, 2, 0}, {8, 7, 0, 1, 0}, {8, 8, 0, 0, 0},
		},
		duration: 0.6868799999999998,
	},
	{
		name:   "tdm/8/chaos",
		perTag: []int{1250, 1000, 1250, 1000, 1250, 1125, 1250, 1125},
		rounds: [][5]int{
			{8, 7, 0, 1, 0}, {8, 8, 0, 0, 0}, {8, 8, 0, 0, 0}, {8, 8, 0, 0, 0},
			{8, 0, 0, 8, 1}, {8, 7, 0, 1, 0}, {8, 8, 0, 0, 0}, {8, 7, 0, 1, 0},
			{8, 7, 0, 1, 0}, {8, 6, 0, 2, 0}, {8, 8, 0, 0, 0}, {8, 0, 0, 8, 1},
		},
		duration: 0.6868799999999998,
	},
	{
		name:   "tdm/20",
		perTag: []int{1375, 1375, 1500, 1375, 1500, 1500, 1375, 1375, 1375, 1375, 1500, 1500, 1375, 1125, 1250, 1500, 1500, 1250, 1500, 1375},
		rounds: [][5]int{
			{20, 19, 0, 1, 0}, {20, 19, 0, 1, 0}, {20, 19, 0, 1, 0}, {20, 16, 0, 4, 0},
			{20, 19, 0, 1, 0}, {20, 20, 0, 0, 0}, {20, 19, 0, 1, 0}, {20, 18, 0, 2, 0},
			{20, 20, 0, 0, 0}, {20, 19, 0, 1, 0}, {20, 17, 0, 3, 0}, {20, 19, 0, 1, 0},
		},
		duration: 1.1088000000000002,
	},
	{
		name:   "tdm/20/chaos",
		perTag: []int{1000, 1000, 1000, 1125, 1125, 1125, 1000, 1125, 1000, 1125, 1125, 1125, 750, 1000, 875, 1125, 1125, 1125, 1125, 1125},
		rounds: [][5]int{
			{20, 19, 0, 1, 0}, {20, 19, 0, 1, 0}, {20, 19, 0, 1, 0}, {20, 16, 0, 4, 0},
			{20, 0, 0, 20, 1}, {20, 19, 0, 1, 0}, {20, 20, 0, 0, 0}, {20, 19, 0, 1, 0},
			{20, 18, 0, 2, 0}, {20, 20, 0, 0, 0}, {20, 0, 0, 20, 1}, {20, 0, 0, 20, 1},
		},
		duration: 1.1088000000000002,
	},
	{
		name:   "firmware/8",
		perTag: []int{500, 500, 250, 500, 375, 625, 250, 750},
		rounds: [][5]int{
			{8, 2, 3, 3, 0}, {9, 4, 1, 4, 0}, {6, 1, 3, 2, 0}, {8, 3, 2, 3, 0},
			{8, 5, 1, 2, 0}, {7, 0, 3, 4, 0}, {7, 3, 2, 2, 0}, {8, 3, 2, 3, 0},
			{8, 1, 3, 4, 0}, {8, 2, 2, 4, 0}, {7, 4, 1, 2, 0}, {6, 2, 2, 2, 0},
		},
		duration: 0.6585,
	},
}

func TestNetworkModelsPinned(t *testing.T) {
	chaos, err := ParseFaultProfile("chaos")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]NetworkResult{}
	for _, scheme := range []MACScheme{FramedSlottedAloha, TDM} {
		for _, n := range []int{8, 20} {
			for _, faulted := range []bool{false, true} {
				cfg := DefaultNetworkConfig(scheme, n)
				name := fmt.Sprintf("%v/%d", scheme, n)
				if faulted {
					cfg.RoundCorruption = chaos.RoundCorruption(cfg.Seed)
					name += "/chaos"
				}
				res, err := RunNetwork(cfg, 12)
				if err != nil {
					t.Fatal(err)
				}
				got[name] = res
			}
		}
	}
	res, err := RunNetworkFirmwareLevel(8, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	got["firmware/8"] = res
	if len(got) != len(networkPins) {
		t.Fatalf("%d runs, %d pins", len(got), len(networkPins))
	}

	for _, pin := range networkPins {
		res, ok := got[pin.name]
		if !ok {
			t.Fatalf("%s: no such run", pin.name)
		}
		if fmt.Sprint(res.PerTagBits) != fmt.Sprint(pin.perTag) {
			t.Errorf("%s: per-tag bits %v, want %v", pin.name, res.PerTagBits, pin.perTag)
		}
		rounds := make([][5]int, len(res.Rounds))
		for i, r := range res.Rounds {
			rounds[i] = [5]int{r.Slots, r.Successes, r.Collisions, r.Idle, 0}
			if r.Corrupted {
				rounds[i][4] = 1
			}
		}
		if fmt.Sprint(rounds) != fmt.Sprint(pin.rounds) {
			t.Errorf("%s: rounds %v, want %v", pin.name, rounds, pin.rounds)
		}
		if res.Duration != pin.duration {
			t.Errorf("%s: duration %v, want %v", pin.name, res.Duration, pin.duration)
		}
	}
}
