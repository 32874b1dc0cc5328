package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestSelectSuites pins the flag surface: which suites each flag names,
// which values are refused, the gated default, and that the selection
// always comes back in presentation order whatever order it was named in.
func TestSelectSuites(t *testing.T) {
	type args struct {
		table, figure int
		ablation      string
		suites        string
		all, gate     bool
	}
	cases := []struct {
		name    string
		args    args
		want    []string
		wantErr string
	}{
		{name: "nothing", want: nil},
		{name: "table1", args: args{table: 1}, want: []string{"table1"}},
		{name: "table6", args: args{table: 6}, want: []string{"table6"}},
		{name: "table7", args: args{table: 7}, wantErr: "no table 7"},
		{name: "table-1", args: args{table: -1}, wantErr: "no table -1"},
		{name: "figure3", args: args{figure: 3}, want: []string{"figure3"}},
		{name: "figure7", args: args{figure: 7}, want: []string{"figure7"}},
		{name: "figure8", args: args{figure: 8}, want: []string{"figure8"}},
		{name: "figure5", args: args{figure: 5}, wantErr: "no figure 5"},
		{name: "ablation-ab", args: args{ablation: "ab"}, want: []string{"ablation-a", "ablation-b"}},
		{name: "ablation-b", args: args{ablation: "b"}, want: []string{"ablation-b"}},
		{name: "ablation-ba", args: args{ablation: "ba"}, want: []string{"ablation-a", "ablation-b"}},
		{name: "ablation-c", args: args{ablation: "c"}, wantErr: `no ablation "c"`},
		{name: "ablation-banana", args: args{ablation: "banana"}, wantErr: `no ablation "banana"`},
		{name: "unknown-suite", args: args{suites: "gate,nope"}, wantErr: `unknown suite "nope"`},
		{name: "check-default", args: args{gate: true}, want: []string{"robustness", "rss", "gate"}},
		{name: "check-named", args: args{table: 3, gate: true}, want: []string{"table3"}},
		{
			name: "presentation-order",
			args: args{table: 6, figure: 3, ablation: "ba", suites: " gate , figure7,table1"},
			want: []string{"table1", "figure3", "figure7", "table6", "ablation-a", "ablation-b", "gate"},
		},
		{
			name: "all",
			args: args{all: true},
			want: []string{"table1", "table2", "figure3", "figure7", "table3", "table4", "table5",
				"table6", "figure8", "ablation-a", "ablation-b", "faults", "robustness", "rss", "gate"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.args
			sel, err := selectSuites(a.table, a.figure, a.ablation, a.suites, a.all, a.gate)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, s := range sel {
				got = append(got, s.Key)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("suites = %v, want %v", got, tc.want)
			}
		})
	}
}
