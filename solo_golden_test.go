package eof

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"
)

// TestSoloCampaignGolden pins single-board campaigns, driven through the
// public API, to values recorded while solo campaigns still ran their own
// engine and checkpoint loops (before they became a fleet of one). Each case
// records the SHA-256 of the full journal (header included) and of the
// rendered public report, so any change to what a solo campaign executes,
// journals, triages, checkpoints or reports shows up here.
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
			if err != nil {
				t.Fatal(err)
			}
			if got := soloGolden(h.Sum(nil), rep); got != tc.want {
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
