package experiments

// Experiment is one entry of the evaluation registry: the stable name
// (the freerider-bench subcommand and the /v1/experiments/{name} path),
// the title printed above its rows, and the runner. full selects
// publication effort for the runners that take an explicit sample,
// message, window or round count, CI effort otherwise; the per-point
// packet count comes from Options (DefaultOptions or QuickOptions).
type Experiment struct {
	Name  string
	Title string
	Run   func(opt Options, full bool) (any, error)
}

// Registry lists, in paper order, every experiment that both
// freerider-bench and the HTTP service run. It is the one place their
// names, titles and effort values are defined.
var Registry = []Experiment{
	{"fig3", "Fig 3 — ambient packet durations on channel 6",
		func(opt Options, full bool) (any, error) {
			return Fig3AmbientDurations(effort(full, 100000, 1000000), opt)
		}},
	{"fig4", "Fig 4 — PLM scheduling-message delivery vs distance (15 dBm)",
		func(opt Options, full bool) (any, error) {
			return Fig4PLMAccuracy(effort(full, 2000, 20000), opt)
		}},
	{"fig10", "Fig 10 — WiFi LOS backscatter vs distance", fixed(Fig10WiFiLOS)},
	{"fig11", "Fig 11 — WiFi NLOS backscatter vs distance", fixed(Fig11WiFiNLOS)},
	{"fig12", "Fig 12 — ZigBee LOS backscatter vs distance", fixed(Fig12ZigBeeLOS)},
	{"fig13", "Fig 13 — Bluetooth LOS backscatter vs distance", fixed(Fig13BluetoothLOS)},
	{"fig14", "Fig 14 — operating regime: max RX-to-tag vs TX-to-tag distance", fixed(Fig14OperatingRegime)},
	{"fig15", "Fig 15 — WiFi throughput with and without backscatter",
		func(opt Options, full bool) (any, error) {
			return Fig15WiFiCoexistence(effort(full, 100, 300), opt)
		}},
	{"fig16", "Fig 16 — backscatter throughput with WiFi traffic present/absent",
		func(opt Options, full bool) (any, error) {
			return Fig16BackscatterUnderWiFi(effort(full, 100, 300), opt)
		}},
	{"fig17", "Fig 17 — multi-tag aggregate throughput and Jain fairness",
		func(opt Options, full bool) (any, error) {
			return Fig17MultiTag(effort(full, 8, 12), opt)
		}},
	{"fig17sim", "Fig 17 (firmware-level) — per-pulse PLM losses through real tag state machines",
		func(opt Options, full bool) (any, error) {
			return Fig17FirmwareLevel(effort(full, 8, 12), opt)
		}},
	{"power", "§3.3 — tag power budget",
		func(Options, bool) (any, error) { return PowerBudget(), nil }},
	{"plmrate", "§2.4.2 — PLM downlink rate",
		func(Options, bool) (any, error) { return PLMRate{RateBps: PLMRateBps()}, nil }},
	{"redundancy", "§3.2.1 — OFDM symbols per tag bit (redundancy study)", fixed(RedundancySweep)},
	{"pilots", "§3.2.1 — pilot phase tracking ablation", fixed(PilotTrackingAblation)},
	{"baselines", "§1 motivation — FreeRider vs HitchHike [25] on mixed traffic", fixed(BaselineAvailability)},
	{"collision", "§2.4.1 — slot-collision physics (superposed tags at sample level)", fixed(CollisionStudy)},
	{"quaternary", "eq. 4 vs eq. 5 — binary vs quaternary phase translation (12 Mbps QPSK)", fixed(QuaternaryStudy)},
	{"cfo", "carrier-frequency-offset robustness (pilot-free tracking)", fixed(CFOStudy)},
	{"snr", "BER vs SNR — WiFi decoder operating curve (memoized excitation)", fixed(BERvsSNR)},
	{"snr-single", "BER vs SNR — single-receiver (Double-decker) vs dual-receiver sensitivity", fixed(SingleReceiverBERvsSNR)},
}

// Lookup returns the registry entry with the given name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// effort picks a runner's CI or publication sample budget.
func effort(full bool, quick, publication int) int {
	if full {
		return publication
	}
	return quick
}

// fixed adapts a runner whose effort comes from Options alone.
func fixed[T any](run func(Options) (T, error)) func(Options, bool) (any, error) {
	return func(opt Options, _ bool) (any, error) { return run(opt) }
}
