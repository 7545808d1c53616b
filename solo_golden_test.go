package eof

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"
)

// TestSoloCampaignGolden pins campaigns driven through the public API. The
// single-board cases hold values recorded while solo campaigns still ran
// their own engine and checkpoint loops (before they became a fleet of one);
// the pooled cases hold values recorded while the fleet still drove its
// hardware and emulation tiers through separate copies of each barrier step.
// Each case records the SHA-256 of the full journal (header included) and of
// the rendered public report, so any change to what a campaign executes,
// journals, triages, confirms, quarantines, checkpoints or reports shows up
// here. A campaign that must fail records its journal digest and error text.
func TestSoloCampaignGolden(t *testing.T) {
	store := t.TempDir()
	cases := []struct {
		name   string
		opts   Options
		budget time.Duration
		// stopAt, when positive, requests a graceful stop after that
		// checkpoint epoch commits.
		stopAt int
		want   string
	}{
		{
			name:   "plain",
			opts:   Options{OS: "freertos", Seed: 7},
			budget: 12 * time.Minute,
			want: `journal=6376aa75a593e451e255d6fb3ea53bfee897b300b8eafdcacf9aa8b435c6fb76
report=e03f22202f6a9cb5a4c465d94369ab2c22adb45ddec71618acf214ba82bfc258
execs=849 edges=962 bugs=1 duration=722880414660 checkpoints=0`,
		},
		{
			name: "triage-snapshots-faults",
			opts: Options{OS: "rtthread", Seed: 7, Triage: true, Snapshots: true,
				LinkFaultRate: 0.05, SampleEvery: time.Minute},
			budget: 12 * time.Minute,
			want: `journal=ed0b45a27ca699ed090f633ed5cf25e455dcf57f98fb91cda1b17558004b79a0
report=351794b275fe40c12b6ddf9db391cbb12f033d3358b679c486d0fa5798663ad9
execs=1552 edges=1097 bugs=8 duration=720053638281 checkpoints=0`,
		},
		{
			name: "legacy-degraded-spares",
			opts: Options{OS: "freertos", Seed: 7, LegacyLink: true, Spares: 2, SyncEvery: 3 * time.Minute,
				Degrade: DegradeOptions{BootFailRate: 0.2, WearLimit: 20}},
			budget: 12 * time.Minute,
			want: `journal=d2e8e3e372db9bc9f0a14f5451734a4a4d8d31b58a35b36aee05191616cc3324
report=1222988d07d335c600ed0908494d5dc88f02665236c3252f910b573a093c8a91
execs=682 edges=926 bugs=1 duration=722333852851 checkpoints=0`,
		},
		{
			name:   "persist",
			opts:   Options{OS: "rtthread", Seed: 23, CorpusDir: store},
			budget: 25 * time.Minute,
			want: `journal=47e4e52c847cf165ef951d32476e3afe61861ad2341e008932664e875f38a4f4
report=052bb69486126b6716564d7b6f8107bc1bd2b29e3293758f497c7cd19e6c8cca
execs=2318 edges=1102 bugs=7 duration=1502610329706 checkpoints=3`,
		},
		{
			name:   "resume",
			opts:   Options{OS: "rtthread", CorpusDir: store, Resume: true, Triage: true},
			budget: 15 * time.Minute,
			want: `journal=ab7a38f63c4d4dab3b6e1628b79ae5c8cb19d513f09593d88f6340a7c2f60508
report=453a7d7000839393ddc0cf324269323451fe3312d642c20a2f7fe7591e59fdd9
execs=1587 edges=1138 bugs=1 duration=900606589933 checkpoints=2`,
		},
		{
			name:   "graceful-stop",
			opts:   Options{OS: "zephyr", Seed: 5, CorpusDir: t.TempDir(), SyncEvery: 4 * time.Minute},
			budget: time.Hour,
			stopAt: 2,
			want: `journal=a3ec647390ba7a9a738805c7dd1ead18fe2746c35ec89c79b9859e4689c00ebe
report=f3a9e41b7b2d87d943f19ea4704d2dda1df5b41551d4277fb4613f7beeba37df
execs=853 edges=1003 bugs=4 duration=480095044731 checkpoints=2`,
		},
		{
			name: "tiered-snapshots-triage",
			opts: Options{OS: "freertos", Seed: 7, Tiers: true, EmulShards: 2, Snapshots: true, Triage: true,
				SyncEvery: 30 * time.Second},
			budget: time.Minute,
			want: `journal=f6186498f21bb1dda48e608103aca13f43d34d861802ac4cf5c5f03b17f1e85c
report=b007262fa44b983a50619ff5f07f3fadf3d05c2389879cd62c74c3dde12a335f
execs=2774 edges=950 bugs=2 duration=331682394660 checkpoints=0`,
		},
		{
			name: "spare-promoted-at-setup",
			opts: Options{OS: "freertos", Seed: 5, Shards: 2, Spares: 1, Triage: true, SyncEvery: 2 * time.Minute,
				Degrade: DegradeOptions{DeathRate: 0.05}},
			budget: 8 * time.Minute,
			want: `journal=39360a89bd39d6ae7f069ca90a38138925d27c2e0406f8b2ef433fc23081d548
report=3fce6b745e7217dbecebb62e74cf346a7b8124563dff14307e3a1e8b764b392d
execs=702 edges=908 bugs=2 duration=244782683702 checkpoints=0`,
		},
		{
			name: "sick-quarantine",
			opts: Options{OS: "rtthread", Seed: 7, Shards: 2, Spares: 2, SyncEvery: 2 * time.Minute,
				Health:  HealthOptions{SickThreshold: 0.9},
				Degrade: DegradeOptions{BootFailRate: 0.3, WearLimit: 20}},
			budget: 12 * time.Minute,
			want: `journal=aa2bcaa9e4c793fa6e2893fc1cdfd99ec02d0c544a9cf1ff960926de6aad47db
report=fcd558445149d593abd5bf74dc8f02a5e8d445bbae69e198b9769adbd3564ea1
execs=617 edges=958 bugs=7 duration=304367611791 checkpoints=0`,
		},
		{
			name: "tiered-faults-persist",
			opts: Options{OS: "freertos", Seed: 7, Tiers: true, EmulShards: 1, LinkFaultRate: 0.05,
				CorpusDir: t.TempDir(), SyncEvery: 30 * time.Second},
			budget: time.Minute,
			want: `journal=e300c7c479b8807568c5b6dcd56973e1e6c3ec3c23f7dba039816c25a02dd010
report=924f7404799c9da7ba6c32c9180cf24d66a7b9ad62022b4244cfd4e90aed05f8
execs=1372 edges=844 bugs=2 duration=453651878642 checkpoints=2`,
		},
		{
			name: "all-hardware-dead-at-setup",
			opts: Options{OS: "freertos", Seed: 7, Shards: 2, Spares: 1, Tiers: true, EmulShards: 1, Triage: true,
				Degrade: DegradeOptions{DieAfterBoots: 1}},
			budget: 8 * time.Minute,
			want: `journal=e1d075c96adc1ebd193e7a83c90e5e526307a330ccd133d7b03e1325d3243752
err=fleet: every board died during setup: core: board dead`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			opts := tc.opts
			opts.TraceJSONL = h
			c, err := NewCampaign(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if tc.stopAt > 0 {
				c.persist.AfterCheckpoint = func(epoch int) {
					if epoch == tc.stopAt {
						c.RequestStop()
					}
				}
			}
			rep, err := c.Run(tc.budget)
			var got string
			if err != nil {
				got = fmt.Sprintf("journal=%s\nerr=%v", hex.EncodeToString(h.Sum(nil)), err)
			} else {
				got = soloGolden(h.Sum(nil), rep)
			}
			if got != tc.want {
				t.Fatalf("solo campaign golden changed:\n got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// soloGolden renders a campaign's journal digest, a digest of its whole
// public report (the store directory, a temporary path, left out) and the
// headline numbers in clear.
func soloGolden(journal []byte, rep *Report) string {
	r := *rep
	var persist PersistReport
	if r.Persist != nil {
		persist = *r.Persist
		persist.Dir = ""
		r.Persist = nil
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%+v", r, persist)))
	return fmt.Sprintf("journal=%s\nreport=%s\nexecs=%d edges=%d bugs=%d duration=%d checkpoints=%d",
		hex.EncodeToString(journal), hex.EncodeToString(sum[:]),
		rep.Execs, rep.Edges, len(rep.Bugs), int64(rep.Duration), persist.Checkpoints)
}
