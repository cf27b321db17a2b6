package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"stopandstare/internal/graph"
)

// sasgDigest is the SHA-256 of the graph's .sasg sections: bytes [192, end)
// of the image, both CSRs in the on-disk layout. The 192-byte header is left
// out, so the digests pin graph content, not the header's version field.
func sasgDigest(t *testing.T, g *graph.Graph, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := g.WriteMapped(&img); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(img.Bytes()[192:])
	return hex.EncodeToString(sum[:])
}

// pinnedEdgeList has duplicate arcs (one of them three times with distinct
// weights), self-loops, comments and an isolated node id.
const pinnedEdgeList = `# pinned fixture
0 1 0.25
1 2 0.5
0 1 0.125
2 2 0.75
3 0 0.3
0 1 0.0625
2 3 0.9
2 3 0.4
4 4
5 3 0.2
1 0 0.35 % back arc
7 6 0.05
`

// TestGeneratedGraphsPinned pins the exact bytes every generator and the
// edge-list loader produce, so a change to graph construction (the sort, the
// duplicate merge, the generators' arc sets) must keep each graph identical.
func TestGeneratedGraphsPinned(t *testing.T) {
	wc := graph.BuildOptions{Model: graph.WeightedCascade}
	uni := graph.BuildOptions{Model: graph.Uniform, UniformP: 0.05}
	tri := graph.BuildOptions{Model: graph.Trivalency, TrivalencySeed: 7}
	preset := func(name string, scale float64) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			p, err := PresetByName(name)
			if err != nil {
				return nil, err
			}
			return p.Generate(scale, 1, wc)
		}
	}
	load := func(directed bool, opt graph.BuildOptions) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			return graph.LoadEdgeList(strings.NewReader(pinnedEdgeList), graph.LoadOptions{Directed: directed, Build: opt})
		}
	}
	cases := []struct {
		name  string
		long  bool // skipped under -short
		build func() (*graph.Graph, error)
		want  string
	}{
		{"nethept@0.5", false, preset("nethept", 0.5), "65a0a2a7c1734b6374ccf2ab88712749be859d73655e2f95a623bec238063e3c"},
		{"netphy@0.5", false, preset("netphy", 0.5), "bffac4aa9ef112e3780905643c02a674a5d9924cf1381bb7aaaf5ffb458d419b"},
		{"enron@0.5", false, preset("enron", 0.5), "ba0b98f8dad8ee9919d9352d36db4675247c835371fb184753fb3b638dfd342f"},
		{"epinions@0.2", false, preset("epinions", 0.2), "65e72cc04388016d7ac0d98bcb4c07fb5e74c88ab17fad3dda0f2314d1e71961"},
		{"dblp@0.05", false, preset("dblp", 0.05), "42704256d9b68193116ecffbaa8dfccb66e376cfad2d55544ef1ab838cd3324d"},
		{"orkut@0.0005", false, preset("orkut", 0.0005), "fee9283abd529d5dd568297eb8dabe08f415602e0a93692e130a7e2c156ac98b"},
		{"twitter@0.0001", false, preset("twitter", 0.0001), "1d294cd18b968c45821aa39a16d9c2cb904a258e506c7b90ed2b415d5603bcc6"},
		{"friendster@0.00005", false, preset("friendster", 0.00005), "42990dd808493f70d8f9dac7a5d9530ad449e05bc10ac75d2410b78a496fedfa"},

		{"er/wc", false, func() (*graph.Graph, error) { return ErdosRenyi(3000, 20000, 3, wc) }, "13954182876cf67604e637a54a81ac99fc5f897df257dbcf05f3f2c14adb8bad"},
		{"er/uniform", false, func() (*graph.Graph, error) { return ErdosRenyi(3000, 20000, 3, uni) }, "d3c0623c9bbd3b4187c40ae784d700e32e669e8e5182df8e2f5a0b9b7bc10bb9"},
		{"er/trivalency", false, func() (*graph.Graph, error) { return ErdosRenyi(3000, 20000, 3, tri) }, "d94903d56e6b7933fce5f7ac54243d2e8b575085a965ca9461da5e5d292b7c72"},
		{"ba/wc", false, func() (*graph.Graph, error) { return BarabasiAlbert(3000, 4, 5, wc) }, "3f3dea29a8f4b71ad18c006fb7ac14610449c8f0ff39c0709b420237a30eacfa"},
		{"ba/uniform", false, func() (*graph.Graph, error) { return BarabasiAlbert(3000, 4, 5, uni) }, "04152ef175b728d2258a6fd4d90b68fc299cb330211390945223b3b442616363"},
		{"ba/trivalency", false, func() (*graph.Graph, error) { return BarabasiAlbert(3000, 4, 5, tri) }, "61152a95399ed5bfcb4fa3c965bc47103c343fdf13d151d4b07eaa02b68d72f9"},
		{"ws/wc", false, func() (*graph.Graph, error) { return WattsStrogatz(3000, 4, 0.3, 9, wc) }, "f2a157402d278ae1e281dde86270263ce3a64496f899621861fbc4aa43bd4385"},
		{"ws/uniform", false, func() (*graph.Graph, error) { return WattsStrogatz(3000, 4, 0.3, 9, uni) }, "2ab959254d263b7c1f21deefd921b6a60ae5ea6686fd6a38817271fee5a1a20f"},
		{"ws/trivalency", false, func() (*graph.Graph, error) { return WattsStrogatz(3000, 4, 0.3, 9, tri) }, "53e53594ea1acd96aa1390633ac567c5fd5ee3cedd85ec3cad5d6314ed3c2186"},
		{"chunglu/wc", false, func() (*graph.Graph, error) { return ChungLu(4000, 30000, 2.1, 13, wc) }, "d36c40effaf66112be1307992accd656aa34cf0cf0487f885ce78584899ba863"},
		{"chunglu/uniform", false, func() (*graph.Graph, error) { return ChungLu(4000, 30000, 2.1, 13, uni) }, "0253783edb1f75b9c92dd9a2f170fae99be087dcdd6dde8114efc2f9ea4be863"},
		{"chunglu/trivalency", false, func() (*graph.Graph, error) { return ChungLu(4000, 30000, 2.1, 13, tri) }, "f2ee1814a2c4fca1fb202860d992692004d11462143cdb70e81d9995955ae518"},

		{"edgelist/directed/given", false, load(true, graph.BuildOptions{}), "13db4a6c93818c27443f58f07d1a7967ccce3d6ba249caa5e6d05d2085e9a7cf"},
		{"edgelist/directed/wc", false, load(true, wc), "64057ae3703b520ef74016aee83f5e59546fe5611adb88777941e1765145b5a9"},
		{"edgelist/undirected/given", false, load(false, graph.BuildOptions{}), "8f550501a7e91023bf3ce4fd00c9ccbbd34bbb84919ebf8b1d1c9d760c05c9f5"},
		{"edgelist/undirected/trivalency", false, load(false, tri), "473cfe54ff3182133a573b33c9645f5ad9a43b1ddca94b1ca66e37082a034adb"},

		// The six (preset, scale) pairs the end-to-end benchmark writes, at
		// its dataset seed.
		{"bench/dblp@0.4", true, preset("dblp", 0.4), "d48e8ce5441a9f005bde021e309a563a7bacd6e73a8c78cecb37c0126f957ef3"},
		{"bench/dblp@0.6", true, preset("dblp", 0.6), "0b5d5fd855943bcb9bddf4248aaa9a07a817c0d287c379cf0aae88271e9cb581"},
		{"bench/orkut@0.02", true, preset("orkut", 0.02), "d062bc7d30336e8a1204cc8b9ea771446c93bd78e3c4e9e4e108bbfed184faf8"},
		{"bench/epinions@1", true, preset("epinions", 1), "84ce7d65b8052782864e33fe2d4ef5e92778fb45a4f7f76fe34faaf9773cb330"},
		{"bench/enron@1", true, preset("enron", 1), "221696251a3970e9e27f007f695f85e5ca0e20ecb08cc69ace69ea5747d7c2c8"},
		{"bench/nethept@1", true, preset("nethept", 1), "7b3f5a061f8e9783b8430ce7da1a214fee3fb1ad9414fbd4d219392808e7e687"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("benchmark-sized graph")
			}
			g, err := c.build()
			if got := sasgDigest(t, g, err); got != c.want {
				t.Errorf("sha256 = %s, want %s", got, c.want)
			}
		})
	}
}
