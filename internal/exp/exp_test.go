package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23"}
	all := All()
	if len(all) != len(want) {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Fatalf("registry has %v, want %v", ids, want)
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("order: got %s at %d, want %s", e.ID, i, want[i])
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("%s incomplete: %+v", e.ID, e)
		}
	}
}

func TestGet(t *testing.T) {
	if _, ok := Get("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := Get("E99"); ok {
		t.Fatal("phantom experiment")
	}
}

func TestScaleString(t *testing.T) {
	if Small.String() != "small" || Medium.String() != "medium" || Full.String() != "full" {
		t.Fatal("scale names")
	}
	if !strings.HasPrefix(Scale(9).String(), "scale(") {
		t.Fatal("unknown scale name")
	}
}

func TestConfigTrials(t *testing.T) {
	if (Config{}).trials(7) != 7 {
		t.Fatal("default trials")
	}
	if (Config{Trials: 2}).trials(7) != 2 {
		t.Fatal("override trials")
	}
}

// smallDigests is the SHA-256 of each experiment's rendered tables
// (concatenated in order) at Config{Scale: Small, Seed: 12345, Trials: 2}.
// Every table is seed-deterministic, so a change that should not move any
// number must leave these unchanged.
var smallDigests = map[string]string{
	"E1":  "71e9f2d73dc0a72c3b2e66ff74cc0456201bc3a1b952c15b379683eda404eefd",
	"E2":  "7ab6cf6a426d0ee6f84c4d59543675d2c1ef3c417f94b67517bd6839f21ae870",
	"E3":  "7a70d26e9c81225e1e5be131fa9384c9ad7a30d6f3e9a35993026b8d2613f492",
	"E4":  "271aa15e37005173637d1180e45cff8f1eafacc7549372dbe9ddcce9c10a6b7c",
	"E5":  "f9628a1e7d951a573cc4fdd11959d04a535db94e4d054609e938d38444f0c5bb",
	"E6":  "07fb385ca8afaec13223443ae74ebfa008a5de5d8b90b21cb75b1453b435cebb",
	"E7":  "a27c623cfbc8c913f590aa49ce551d58a81dfb97448c88d6062ae9fcef991386",
	"E8":  "bb3e321a7a2df529a9398d46d54e029421891d94e548feedb1ecc2a085fb3683",
	"E9":  "3d3cdab9aebe34f5889969a6343e6a584216ad0360807eba02d684ecd9fd667b",
	"E10": "6a20d7f18d449c51b523128429084d46454df28afddcf4cd995b0ff3885608dd",
	"E11": "892f1973f9b265c302fec1a49b46720d5c3b9a75e92619e8e6a6414cc694c1b4",
	"E12": "669323ad6b090462145efdcd1cce06d7e8a52032772637aaa69364bc9ca28f51",
	"E13": "bba02a404e61d2a447d35ab6926280c616830bd0b44c9f0dca7e7eafe80dc1e2",
	"E14": "b894aff619d8d24a6c5da535ee02789f0d622c2d467be5fac9ed5e3774ca4f22",
	"E15": "30d96b094dc596ad94ba18c81b40cbd2b3e3cc861e83884d2d8f4d220284de03",
	"E16": "5ec6adc2d838d2bad41c0133692dde4024237bb47432405bf74dfdb9d4027a3e",
	"E17": "c4f367f3be41db4b8ef9f65a9c28570ce1437c805b9c1b4e49c3fbecae280809",
	"E18": "bed31b2021cedb65e2d5e454215545bee69f8973f93088728fe6e94d9ca59c30",
	"E19": "b157c03e3e781d5e163a468252ce58fdcb6fc6213c83625bee1d9d70a80dd70c",
	"E20": "05eb59f86ec1535842b27356738f9ab2b1d6cef9db15be3521ea516c438ccd32",
	"E21": "0d8ba4dc200dd9e1d9c8577a1c85a79a0525d0906fb28d837c4678886008ca0b",
	"E22": "781fbfb0bd354fa01af466341cc9f3073113ea2304c4885445c3ce8a28f0fb7e",
	"E23": "404591eb3da428ccdead96f68b8ef960bebcce55ac23004550f6548f765fdb44",
}

// Every experiment must run at Small scale, produce at least one
// non-empty table, and render exactly the recorded tables. These are the
// repository's end-to-end smoke tests.
func TestAllExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	cfg := Config{Scale: Small, Seed: 12345, Trials: 2}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			h := sha256.New()
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s produced an empty table %q", e.ID, tb.Title)
				}
				s := tb.String()
				if len(s) == 0 {
					t.Fatalf("%s renders empty", e.ID)
				}
				h.Write([]byte(s))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != smallDigests[e.ID] {
				t.Fatalf("%s tables drifted: sha256 %s, want %s", e.ID, got, smallDigests[e.ID])
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	cfg := Config{Scale: Small, Seed: 777, Trials: 2}
	for _, id := range []string{"E1", "E4"} {
		e, _ := Get(id)
		a := e.Run(cfg)
		b := e.Run(cfg)
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Fatalf("%s is not deterministic for a fixed seed", id)
			}
		}
	}
}

func TestNumericID(t *testing.T) {
	if numericID("E12") != 12 || numericID("E1") != 1 {
		t.Fatal("numericID broken")
	}
}

// Golden end-to-end regression: E14 at a fixed seed is fully
// deterministic (exhaustive search + greedy adversary on seeded graphs),
// so its rendered table must never change. If an intentional change to
// the generators, the engine or the adversary alters it, update the
// golden string consciously.
func TestE14GoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	e, ok := Get("E14")
	if !ok {
		t.Fatal("E14 missing")
	}
	tables := e.Run(Config{Scale: Small, Seed: 31337, Trials: 4})
	if len(tables) != 1 {
		t.Fatalf("%d tables", len(tables))
	}
	got := tables[0].CSV()
	again := e.Run(Config{Scale: Small, Seed: 31337, Trials: 4})[0].CSV()
	if got != again {
		t.Fatalf("E14 not deterministic:\n%s\nvs\n%s", got, again)
	}
	// Structural assertions on the golden content (robust to cosmetic
	// format changes): correct header and row count.
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 3 { // header + two sizes at Small scale
		t.Fatalf("E14 table has %d lines:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "n,instances,mean OPT") {
		t.Fatalf("header changed: %q", lines[0])
	}
}
