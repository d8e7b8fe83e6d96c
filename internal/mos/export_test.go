package mos

import "cronus/internal/spm"

// Panic reports an unrecoverable mOS fault to the SPM, triggering the
// proceed-trap recovery for this partition.
func (m *MOS) Panic() { m.SPM.Fail(m.Part, spm.FailPanic) }
