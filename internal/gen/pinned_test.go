package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"stopandstare/internal/graph"
)

// sasgDigest is the SHA-256 of the graph's .sasg bytes: every section the
// builder produces, in the on-disk layout.
func sasgDigest(t *testing.T, g *graph.Graph, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := g.WriteMapped(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
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
		{"nethept@0.5", false, preset("nethept", 0.5), "85f49b6e85a0f3c9f867f37d1ff827b613f683ee78be0b15f310797f499a21bb"},
		{"netphy@0.5", false, preset("netphy", 0.5), "a947ffddba63c33516caa23c25f076fd60a99a6206a7c68fb933d9d000833861"},
		{"enron@0.5", false, preset("enron", 0.5), "725ccb2487ad4c7ae8ce4f6139a1853ad941d49f0780dddbc71b01db07ac4187"},
		{"epinions@0.2", false, preset("epinions", 0.2), "33bbe0928e9ca8b7da604a7055eeeacd4e0141bdf5b0554db8bca7f38d2d92d8"},
		{"dblp@0.05", false, preset("dblp", 0.05), "9396c5ed3c567a42042288f9c16d86e5535c9ef3e004d479bfff17be6747e887"},
		{"orkut@0.0005", false, preset("orkut", 0.0005), "bb86dc66306811565248375aca363c76cc012fada63321242959c26d5348438e"},
		{"twitter@0.0001", false, preset("twitter", 0.0001), "2d772a1c5050f8be261d99885fd3c4ab4fe859cdbd6ef85517057658c7f9deb9"},
		{"friendster@0.00005", false, preset("friendster", 0.00005), "b612d981d90875a2648c70117be4d3f35d67c34519d47122f53aa949c5b24bab"},

		{"er/wc", false, func() (*graph.Graph, error) { return ErdosRenyi(3000, 20000, 3, wc) }, "35f8292ed66ac76050dde98d02a1cc2ca9fb65699e18c75a783b2de9248c6ceb"},
		{"er/uniform", false, func() (*graph.Graph, error) { return ErdosRenyi(3000, 20000, 3, uni) }, "6177fb6468d4c1edc0a1e9c15781128f49d0a4ee021947bdbc9764ea7e878be2"},
		{"er/trivalency", false, func() (*graph.Graph, error) { return ErdosRenyi(3000, 20000, 3, tri) }, "00f4b8d184e217801a65a9f85561135765417b6d90e142b0104b6bbdb93f3b85"},
		{"ba/wc", false, func() (*graph.Graph, error) { return BarabasiAlbert(3000, 4, 5, wc) }, "ef830d811e6b41d3102c5f308921ef87558b3295692738695d48f2ee5102a46b"},
		{"ba/uniform", false, func() (*graph.Graph, error) { return BarabasiAlbert(3000, 4, 5, uni) }, "9f550455a30030548792513f3a7392650f55c0f014eeaf53e6c947762e95ea28"},
		{"ba/trivalency", false, func() (*graph.Graph, error) { return BarabasiAlbert(3000, 4, 5, tri) }, "620ffa0c93112aab2a17885e6137820544fbd867561e16dfeb0b6be7930b132b"},
		{"ws/wc", false, func() (*graph.Graph, error) { return WattsStrogatz(3000, 4, 0.3, 9, wc) }, "1027f30e7df8314467cd86c1c6d6bfd2dd79e04043fee81813504c4f9cbd48f7"},
		{"ws/uniform", false, func() (*graph.Graph, error) { return WattsStrogatz(3000, 4, 0.3, 9, uni) }, "01c34eaa2955f5f10894c01a8be06b5f7c1f741a92de65d5efa27a3730c2e16a"},
		{"ws/trivalency", false, func() (*graph.Graph, error) { return WattsStrogatz(3000, 4, 0.3, 9, tri) }, "2995917c1b404ebea14a24fe86df2d2b08bd79ecca0c4795606b471a3892dd1e"},
		{"chunglu/wc", false, func() (*graph.Graph, error) { return ChungLu(4000, 30000, 2.1, 13, wc) }, "5c59419a79b6c49132d6bcc728034b3078b24ac653d5785ff6c6a81e97ae9bf9"},
		{"chunglu/uniform", false, func() (*graph.Graph, error) { return ChungLu(4000, 30000, 2.1, 13, uni) }, "ce1c0568569ba316ec1498329d9ca9eb424c8e70e0701e4cd6903f57252ce327"},
		{"chunglu/trivalency", false, func() (*graph.Graph, error) { return ChungLu(4000, 30000, 2.1, 13, tri) }, "d54858a9a06c420410b8d57287faba43389b2084c90510d80bd1d00f55c862d7"},

		{"edgelist/directed/given", false, load(true, graph.BuildOptions{}), "f7f9081a231ad63c253cf158980214b1662876d95d3af8737e1b1b38eb77a959"},
		{"edgelist/directed/wc", false, load(true, wc), "d891806b53c37b9f53aee00a04c97445259fb2f0404fb28d9fcc08d5eef2e8f2"},
		{"edgelist/undirected/given", false, load(false, graph.BuildOptions{}), "98bb8c5b6f5561b92fdf8e3c71a12086189bf9d8eb5e77e7e9267be7d606fd35"},
		{"edgelist/undirected/trivalency", false, load(false, tri), "ef12a8bd74580f5ac2308431fb62e683c095dd1c3d932ff004243374a10ea07e"},

		// The six (preset, scale) pairs the end-to-end benchmark writes, at
		// its dataset seed.
		{"bench/dblp@0.4", true, preset("dblp", 0.4), "6a2664568d09433437cf0bda8a1d1092c5bd48292565ade55e4332e0835ce73d"},
		{"bench/dblp@0.6", true, preset("dblp", 0.6), "8576403ae9d9fb3763078be35673aed5da24e3c45eaaecdc827f19f9485f827c"},
		{"bench/orkut@0.02", true, preset("orkut", 0.02), "d8f595f60b791e6a33dae15c33966b2968a6a2ac99da2ff6dd17bfb7d8c4b8dd"},
		{"bench/epinions@1", true, preset("epinions", 1), "ccdd99591c6c0381e31603205529abd03b9d93903e23eeb581ca72e998d74f73"},
		{"bench/enron@1", true, preset("enron", 1), "4227387d324a85cd3cc1201fe85ee745b32bbcc450c1a61fc88946dc818ba404"},
		{"bench/nethept@1", true, preset("nethept", 1), "4b3d1a13678a1e4b11cbf79d1073280ae618985a30afa51dbc4e48fda7f29aa7"},
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
