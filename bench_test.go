// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment at reduced
// sample count and reports the figure's headline quantities as custom
// metrics, so `go test -bench=. -benchmem` doubles as a one-shot
// reproduction log. cmd/freerider-bench runs the same experiments at full
// effort with complete tables.
package freerider

import (
	"testing"

	"repro/internal/decoder"
	"repro/internal/experiments"
)

func benchOptions() experiments.Options {
	o := experiments.QuickOptions()
	o.Seed = 1
	return o
}

// BenchmarkTable1_XORDecode times the codeword-translation decode rule.
func BenchmarkTable1_XORDecode(b *testing.B) {
	acc := byte(0)
	for i := 0; i < b.N; i++ {
		acc ^= decoder.XORDecode(byte(i)&1, byte(i>>1)&1)
	}
	_ = acc
}

// BenchmarkFig3_AmbientDurations regenerates the packet-duration PDF and
// the PLM aliasing probability.
func BenchmarkFig3_AmbientDurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3AmbientDurations(200000, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.ShortFraction*100, "%short")
			b.ReportMetric(res.LongFraction*100, "%long")
			b.ReportMetric(res.AliasProbability*100, "%alias")
		}
	}
}

// BenchmarkFig4_PLMAccuracy regenerates scheduling accuracy vs distance.
func BenchmarkFig4_PLMAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig4PLMAccuracy(5000, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[2].Accuracy*100, "%acc@4m")
			b.ReportMetric(pts[len(pts)-1].Accuracy*100, "%acc@50m")
		}
	}
}

func linkBench(b *testing.B, f func(experiments.Options) ([]experiments.LinkPoint, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		pts, err := f(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[1].ThroughputKbps, "kbps@near")
			b.ReportMetric(pts[len(pts)-1].ThroughputKbps, "kbps@far")
		}
	}
}

// BenchmarkFig10_WiFiLOS regenerates the WiFi LOS distance sweep.
func BenchmarkFig10_WiFiLOS(b *testing.B) { linkBench(b, experiments.Fig10WiFiLOS) }

// BenchmarkFig11_WiFiNLOS regenerates the WiFi NLOS distance sweep.
func BenchmarkFig11_WiFiNLOS(b *testing.B) { linkBench(b, experiments.Fig11WiFiNLOS) }

// BenchmarkFig12_ZigBeeLOS regenerates the ZigBee distance sweep.
func BenchmarkFig12_ZigBeeLOS(b *testing.B) { linkBench(b, experiments.Fig12ZigBeeLOS) }

// BenchmarkFig13_BluetoothLOS regenerates the Bluetooth distance sweep.
func BenchmarkFig13_BluetoothLOS(b *testing.B) { linkBench(b, experiments.Fig13BluetoothLOS) }

// BenchmarkFig14_OperatingRegime regenerates the TX-to-tag vs RX-to-tag
// operating region.
func BenchmarkFig14_OperatingRegime(b *testing.B) {
	opt := benchOptions()
	opt.PacketsPerPoint = 2
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig14OperatingRegime(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				if p.TxToTagM == 1 && p.Radio.String() == "802.11g/n WiFi" {
					b.ReportMetric(p.MaxRxToTag, "m@wifi1m")
				}
			}
		}
	}
}

// BenchmarkFig15_WiFiCoexistence regenerates the WiFi-throughput CDFs with
// and without backscatter.
func BenchmarkFig15_WiFiCoexistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15WiFiCoexistence(150, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].WithoutMbps.Median, "Mbps-without")
			b.ReportMetric(rows[0].WithMbps.Median, "Mbps-with")
		}
	}
}

// BenchmarkFig16_BackscatterUnderWiFi regenerates the backscatter CDFs with
// WiFi traffic present and absent.
func BenchmarkFig16_BackscatterUnderWiFi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16BackscatterUnderWiFi(150, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].AbsentKbps.Median, "kbps-absent")
			b.ReportMetric(rows[0].PresentKbps.Median, "kbps-present")
		}
	}
}

// BenchmarkFig17a_MultiTagThroughput regenerates the aggregate-throughput
// panel (Aloha vs the TDM baseline).
func BenchmarkFig17a_MultiTagThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig17MultiTag(12, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				if p.Tags == 20 {
					b.ReportMetric(p.AlohaKbps, "kbps@20tags")
				}
				if p.Tags == 100 {
					b.ReportMetric(p.AlohaKbps, "kbps-asymptote")
					b.ReportMetric(p.TDMKbps, "kbps-tdm")
				}
			}
		}
	}
}

// BenchmarkFig17b_Fairness regenerates the Jain-fairness panel.
func BenchmarkFig17b_Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig17MultiTag(12, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				if p.Tags == 20 {
					b.ReportMetric(p.FairnessIndex, "jain@20tags")
				}
			}
		}
	}
}

// BenchmarkPower_TagBudget regenerates the §3.3 microwatt budget.
func BenchmarkPower_TagBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.PowerBudget()
		if i == 0 {
			b.ReportMetric(rows[0].Profile.TotalUW(), "uW-wifi")
		}
	}
}

// BenchmarkRedundancy_OFDMSymbolsPerBit regenerates the §3.2.1 redundancy
// ablation (tag BER and rate vs OFDM symbols per tag bit).
func BenchmarkRedundancy_OFDMSymbolsPerBit(b *testing.B) {
	opt := benchOptions()
	opt.PacketsPerPoint = 2
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RedundancySweep(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				if p.SymbolsPerBit == 4 {
					b.ReportMetric(p.ThroughputKbps, "kbps@4sym")
				}
			}
		}
	}
}

// BenchmarkPilotTracking_Ablation regenerates the §3.2.1 pilot ablation.
func BenchmarkPilotTracking_Ablation(b *testing.B) {
	opt := benchOptions()
	opt.PacketsPerPoint = 1
	for i := 0; i < b.N; i++ {
		a, err := experiments.PilotTrackingAblation(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(a.BEROff, "BER-off")
			b.ReportMetric(a.BEROn, "BER-on")
		}
	}
}

// BenchmarkBaselines_HitchHikeAvailability regenerates the §1 motivation
// study: FreeRider vs the HitchHike 802.11b baseline on mixed traffic.
func BenchmarkBaselines_HitchHikeAvailability(b *testing.B) {
	opt := benchOptions()
	opt.PacketsPerPoint = 2
	for i := 0; i < b.N; i++ {
		pts, err := experiments.BaselineAvailability(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				if p.LegacyAirtimeFraction == 0.01 {
					b.ReportMetric(p.FreeRiderKbps, "kbps-freerider@1%11b")
					b.ReportMetric(p.HitchHikeKbps, "kbps-hitchhike@1%11b")
				}
			}
		}
	}
}

// BenchmarkQuaternary_Eq5Study regenerates the eq. 4 vs eq. 5 comparison.
func BenchmarkQuaternary_Eq5Study(b *testing.B) {
	opt := benchOptions()
	opt.PacketsPerPoint = 2
	for i := 0; i < b.N; i++ {
		pts, err := experiments.QuaternaryStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[0].ThroughputKbps, "kbps-binary")
			b.ReportMetric(pts[1].ThroughputKbps, "kbps-quaternary")
		}
	}
}

// BenchmarkCFO_Robustness regenerates the CFO sweep.
func BenchmarkCFO_Robustness(b *testing.B) {
	opt := benchOptions()
	opt.PacketsPerPoint = 2
	for i := 0; i < b.N; i++ {
		pts, err := experiments.CFOStudy(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[len(pts)-1].ThroughputKbps, "kbps@45kHz")
		}
	}
}

// BenchmarkFig17sim_FirmwareLevel regenerates Fig 17 through the
// firmware-level discrete-event simulator.
func BenchmarkFig17sim_FirmwareLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig17FirmwareLevel(12, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				if p.Tags == 20 {
					b.ReportMetric(p.AlohaKbps, "kbps@20tags")
				}
			}
		}
	}
}

// BenchmarkWaterfall_WiFiSensitivity regenerates the native-PHY
// sensitivity curve that anchors the link-budget calibration.
func BenchmarkWaterfall_WiFiSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Waterfall(WiFi, []float64{0, 2, 4, 8}, 4, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(pts[2].PacketRate, "packetRate@4dB")
		}
	}
}

// BenchmarkEndToEnd_Packet times one full sample-level backscatter packet
// per radio (TX → tag → channel → RX → decode).
func BenchmarkEndToEnd_Packet(b *testing.B) {
	for _, radio := range []Radio{WiFi, ZigBee, Bluetooth} {
		b.Run(radio.String(), func(b *testing.B) {
			cfg := DefaultConfig(radio, 5)
			s, err := NewSession(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tagBits := make([]byte, s.Capacity())
			for i := range tagBits {
				tagBits[i] = byte(i) & 1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.RunPacket(tagBits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
