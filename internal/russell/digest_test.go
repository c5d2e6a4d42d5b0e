package russell

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// universeDigest hashes every company's name, ticker, sector and domain,
// in order, each field NUL-terminated.
func universeDigest(companies []Company) string {
	h := sha256.New()
	for _, c := range companies {
		for _, f := range []string{c.Name, c.Ticker, c.Sector, c.Domain} {
			h.Write([]byte(f))
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestUniverseDigests pins the generated universes' bytes: any change to
// the naming, sector allocation, duplicate listing or shuffle fails here.
func TestUniverseDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  []Company
		want string
	}{
		{"Universe(3000)", Universe(3000), "74352e42eb89ce267c7aace28cc14558f05f30465c3a39c8201b87640fe83d53"},
		{"Universe(1)", Universe(1), "e17ba24045e21b094b3744ba25df7b72cf939a4a26ecf365eea67763bc97e2b7"},
		{"UniverseSized(3000, 4000)", UniverseSized(3000, 4000), "1822b26545ba47998e3a62f2e8ff87d80cfb2683e8cc8076086084bea3662255"},
	} {
		if got := universeDigest(tc.got); got != tc.want {
			t.Errorf("%s digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}
