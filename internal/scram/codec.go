package scram

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/spec"
)

// The SCRAM's stable-storage records use the frame-path record codec of
// package codec (tag byte, varints, length-prefixed strings, CRC32C
// trailer). One decoder per record kind serves every reader — the
// applications' per-frame command reads, ReadCommand, and the takeover
// validation in Restore — so what a takeover accepts and what the frame path
// obeys cannot drift apart. Decoded identifiers are interned against the
// specification: a decode returns the specification's own strings and
// allocates only for an identifier the specification does not declare.

// errPlanApps reports a persisted plan whose window sets do not match the
// specification's applications.
var errPlanApps = fmt.Errorf("%w: plan does not carry one window set per application", codec.ErrCorrupt)

// Record tags.
const (
	tagCommand byte = 'C'
	tagState   byte = 'K'
)

// appendCommand appends the configuration_status record of cmd to dst.
func appendCommand(dst []byte, cmd Command) []byte {
	start := len(dst)
	dst = append(dst, tagCommand)
	dst = codec.AppendVarint(dst, cmd.Seq)
	dst = codec.AppendVarint(dst, int64(cmd.Phase))
	dst = codec.AppendString(dst, string(cmd.Target))
	dst = codec.AppendString(dst, string(cmd.Config))
	dst = codec.AppendVarint(dst, cmd.WinStart)
	dst = codec.AppendVarint(dst, cmd.WinEnd)
	dst = codec.AppendVarint(dst, cmd.Epoch)
	return codec.SealRecord(dst, start)
}

// decodeCommand decodes a configuration_status record of app (nil when the
// application is unknown: its specification IDs are then not interned).
// Every failure wraps stable.ErrCorrupt.
func decodeCommand(raw []byte, rs *spec.ReconfigSpec, app *spec.App) (Command, error) {
	r := codec.OpenRecord(raw, tagCommand)
	// Fields decode in order: a composite literal evaluates its calls left
	// to right.
	cmd := Command{
		Seq:      r.Varint(),
		Phase:    spec.Phase(r.Varint()),
		Target:   internSpec(app, r.Bytes()),
		Config:   internConfig(rs, r.Bytes()),
		WinStart: r.Varint(),
		WinEnd:   r.Varint(),
		Epoch:    r.Varint(),
	}
	if err := r.Close(); err != nil {
		return Command{}, err
	}
	return cmd, nil
}

// appendState appends the kernel's persisted-state record to dst. An active
// plan rides inside it, after a presence flag, with one window set per
// application of the specification in declaration order.
func appendState(dst []byte, st *kernelState) []byte {
	start := len(dst)
	dst = append(dst, tagState)
	dst = codec.AppendString(dst, string(st.Current))
	dst = codec.AppendString(dst, string(st.Env))
	dst = codec.AppendVarint(dst, st.Seq)
	dst = codec.AppendVarint(dst, st.LastEnd)
	dst = codec.AppendString(dst, string(st.LastSource))
	dst = codec.AppendString(dst, string(st.TriggerApp))
	dst = codec.AppendFlag(dst, st.Urgent)
	dst = codec.AppendVarint(dst, st.Epoch)
	p := st.Plan
	dst = codec.AppendFlag(dst, p != nil)
	if p != nil {
		dst = codec.AppendVarint(dst, p.Seq)
		dst = codec.AppendString(dst, string(p.Source))
		dst = codec.AppendString(dst, string(p.Target))
		for _, v := range [...]int64{p.TriggerFrame, p.HaltStart, p.HaltEnd, p.PrepStart, p.PrepEnd, p.InitStart, p.InitEnd} {
			dst = codec.AppendVarint(dst, v)
		}
		dst = codec.AppendFlag(dst, p.Retargeted)
		dst = codec.AppendFlag(dst, p.Chained)
		dst = codec.AppendVarint(dst, p.ChainStart)
		dst = codec.AppendString(dst, string(p.ChainSource))
		dst = codec.AppendVarint(dst, p.SpanPhase)
		dst = codec.AppendString(dst, p.SpanPhaseName)
		dst = codec.AppendCount(dst, len(p.Apps))
		for i := range p.Apps {
			aw := &p.Apps[i]
			for _, v := range [...]int64{aw.HaltStart, aw.HaltEnd, aw.PrepStart, aw.PrepEnd, aw.InitStart, aw.InitEnd} {
				dst = codec.AppendVarint(dst, v)
			}
			dst = codec.AppendString(dst, string(aw.Target))
		}
	}
	return codec.SealRecord(dst, start)
}

// appWindowsMinSize is the smallest encoding of one application's windows:
// six one-byte varints and an empty string's length.
const appWindowsMinSize = 7

// decodeState decodes a persisted kernel state of rs into st. A plan must
// carry exactly one window set per application of rs. Identifiers are
// interned like a command's, except the environment state and the span
// name, which the specification does not enumerate; a restore is rare, so
// those two copy. Every failure wraps stable.ErrCorrupt.
func decodeState(raw []byte, rs *spec.ReconfigSpec, st *kernelState) error {
	r := codec.OpenRecord(raw, tagState)
	var s kernelState
	s.Current = internConfig(rs, r.Bytes())
	s.Env = spec.EnvState(r.Bytes())
	s.Seq = r.Varint()
	s.LastEnd = r.Varint()
	s.LastSource = internApp(rs, r.Bytes())
	s.TriggerApp = internApp(rs, r.Bytes())
	s.Urgent = r.Flag()
	s.Epoch = r.Varint()
	if r.Flag() {
		p := &plan{Seq: r.Varint()}
		p.Source = internConfig(rs, r.Bytes())
		p.Target = internConfig(rs, r.Bytes())
		for _, v := range [...]*int64{&p.TriggerFrame, &p.HaltStart, &p.HaltEnd, &p.PrepStart, &p.PrepEnd, &p.InitStart, &p.InitEnd} {
			*v = r.Varint()
		}
		p.Retargeted = r.Flag()
		p.Chained = r.Flag()
		p.ChainStart = r.Varint()
		p.ChainSource = internConfig(rs, r.Bytes())
		p.SpanPhase = r.Varint()
		p.SpanPhaseName = string(r.Bytes())
		if n := r.Count(appWindowsMinSize); r.Err() == nil {
			if n != len(rs.Apps) {
				return errPlanApps
			}
			//lint:allow allocfree takeover only: a restored kernel rebuilds its plan once
			p.Apps = make([]appWindows, n)
			for i := range p.Apps {
				aw := &p.Apps[i]
				for _, v := range [...]*int64{&aw.HaltStart, &aw.HaltEnd, &aw.PrepStart, &aw.PrepEnd, &aw.InitStart, &aw.InitEnd} {
					*v = r.Varint()
				}
				aw.Target = internSpec(&rs.Apps[i], r.Bytes())
			}
		}
		s.Plan = p
	}
	if err := r.Close(); err != nil {
		return err
	}
	*st = s
	return nil
}

// internConfig returns the specification's own string for a decoded
// configuration ID.
func internConfig(rs *spec.ReconfigSpec, b []byte) spec.ConfigID {
	if len(b) == 0 {
		return ""
	}
	if rs != nil {
		for i := range rs.Configs {
			if id := rs.Configs[i].ID; string(id) == string(b) {
				return id
			}
		}
	}
	return spec.ConfigID(b)
}

// internSpec returns app's own string for a decoded specification ID.
func internSpec(app *spec.App, b []byte) spec.SpecID {
	if string(b) == string(spec.SpecOff) {
		return spec.SpecOff
	}
	if app != nil {
		for i := range app.Specs {
			if id := app.Specs[i].ID; string(id) == string(b) {
				return id
			}
		}
	}
	return spec.SpecID(b)
}

// internApp returns the specification's own string for a decoded
// application ID.
func internApp(rs *spec.ReconfigSpec, b []byte) spec.AppID {
	if len(b) == 0 {
		return ""
	}
	if rs != nil {
		for i := range rs.Apps {
			if id := rs.Apps[i].ID; string(id) == string(b) {
				return id
			}
		}
	}
	return spec.AppID(b)
}

// appIndex returns the position of app in rs.Apps, or -1.
func appIndex(rs *spec.ReconfigSpec, app spec.AppID) int {
	for i := range rs.Apps {
		if rs.Apps[i].ID == app {
			return i
		}
	}
	return -1
}
