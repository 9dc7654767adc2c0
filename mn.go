package arcreg

import "arcreg/internal/mnreg"

// MNTag is the version tag of an (M,N) value: writes are totally ordered
// by (Seq, Writer). An (M,N) reader's byte handle reports the tag of the
// value it last returned:
//
//	tag := rd.Reader().(interface{ LastTag() arcreg.MNTag }).LastTag()
type MNTag = mnreg.Tag
