package core

import (
	"errors"
	"testing"

	"repro/internal/envmon"
	"repro/internal/spec"
	"repro/internal/spectest"
)

// validOptions returns options that pass Validate against the canonical
// three-configuration specification.
func validOptions() Options {
	return Options{
		Spec: spectest.ThreeConfig(),
		Apps: map[spec.AppID]App{
			spectest.AppAP:  &testApp{id: spectest.AppAP},
			spectest.AppFCS: &testApp{id: spectest.AppFCS},
		},
		Classifier: powerClassifier(false),
		InitialFactors: map[envmon.Factor]string{
			"alt1": "ok",
			"alt2": "ok",
		},
	}
}

func TestValidateAcceptsCanonicalOptions(t *testing.T) {
	if err := validOptions().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestValidateAcceptsDeprecatedSequential pins that the ignored Sequential
// field still validates, so callers that set it keep building systems.
func TestValidateAcceptsDeprecatedSequential(t *testing.T) {
	opts := validOptions()
	opts.Sequential = true
	if err := opts.Validate(); err != nil {
		t.Fatalf("Validate with Sequential set: %v", err)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
		want   error
	}{
		{"missing spec", func(o *Options) { o.Spec = nil }, ErrMissingSpec},
		{"missing classifier", func(o *Options) { o.Classifier = nil }, ErrMissingClassifier},
		{"missing app", func(o *Options) { delete(o.Apps, spectest.AppFCS) }, ErrMissingApp},
		{"unknown app", func(o *Options) { o.Apps["ghost"] = &testApp{id: "ghost"} }, ErrUnknownApp},
		{"virtual app", func(o *Options) { o.Apps[spectest.AppMonitor] = &testApp{id: spectest.AppMonitor} }, ErrUnknownApp},
		{"standby for unknown app", func(o *Options) {
			o.HotStandby = map[spec.AppID]spec.ProcID{"ghost": "p1"}
		}, ErrUnknownApp},
		{"standby on unknown proc", func(o *Options) {
			o.HotStandby = map[spec.AppID]spec.ProcID{spectest.AppAP: "p99"}
		}, ErrUnknownProc},
		{"unknown SCRAM proc", func(o *Options) { o.SCRAMProc = "p99" }, ErrUnknownProc},
		{"unknown standby proc", func(o *Options) { o.StandbyProc = "p99" }, ErrUnknownProc},
		{"standby equals default primary", func(o *Options) {
			o.StandbyProc = o.Spec.Platform.Procs[0].ID
		}, ErrStandbyConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := validOptions()
			tc.mutate(&opts)
			err := opts.Validate()
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want errors.Is(%v)", err, tc.want)
			}
			// NewSystem delegates: the same defect must surface with the
			// same typed error through construction.
			if _, err := NewSystem(opts); !errors.Is(err, tc.want) {
				t.Fatalf("NewSystem = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}
