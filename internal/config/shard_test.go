package config

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseShardFlag(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string
		// wantErr, when set, is a substring the error must carry.
		wantErr string
	}{
		{"empty means monolithic", "", nil, ""},
		{"off means monolithic", "off", nil, ""},
		{"off is case-insensitive", "OFF", nil, ""},
		{"single shard", "a:1", []string{"a:1"}, ""},
		{"owner plus replica", "a:1,a:2", nil, "replica"},
		{"three groups with replicas", "a:1,a:2; b:1 ;c:1,c:2", nil, "replica"},
		{"whitespace trimmed", " a:1 ; b:1 ", []string{"a:1", "b:1"}, ""},
		{"empty group rejected", "a:1;;b:1", nil, "for shard 1"},
		{"trailing empty group rejected", "a:1;", nil, "for shard 1"},
		{"comma-only group rejected", "a:1; ,", nil, "for shard 1"},
		{"duplicate across groups rejected", "a:1;b:1;a:1", nil, "for shard 2"},
		{"duplicate replica across groups rejected", "a:1,x:9;b:1,x:9", nil, "replica"},
		{"duplicate inside one group rejected", "a:1,a:1", nil, "replica"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseShardFlag(tc.in)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("ParseShardFlag(%q) = %v, want error", tc.in, got)
				}
				if !strings.Contains(err.Error(), "-shards") || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseShardFlag(%q): %v, want an error naming -shards and %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseShardFlag(%q): %v", tc.in, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParseShardFlag(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestOneSDCAddr(t *testing.T) {
	for in, want := range map[string]string{"": "", " , ": "", " a:1 ": "a:1", "a:1,": "a:1"} {
		if got, err := OneAddr("-sdc", "SDC", in); err != nil || got != want {
			t.Errorf("OneAddr(-sdc, %q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, tc := range []struct{ flag, role string }{{"-sdc", "SDC"}, {"-stp", "STP"}} {
		_, err := OneAddr(tc.flag, tc.role, "a:1,b:2")
		if err == nil || !strings.Contains(err.Error(), tc.flag+" takes one "+tc.role+" address") ||
			!strings.Contains(err.Error(), tc.role+" replica groups were removed") {
			t.Errorf("OneAddr(%s, a:1,b:2): %v, want the replica-group refusal naming %s and %s", tc.flag, err, tc.flag, tc.role)
		}
	}
}
