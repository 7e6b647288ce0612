package wifi

import "encoding/binary"

// DataFrame is a minimal IEEE 802.11 data MPDU: frame control, duration,
// three addresses, sequence control, body, FCS. Enough structure for the
// excitation traffic to be genuine productive WiFi rather than random
// bytes.
type DataFrame struct {
	FrameControl uint16
	DurationID   uint16
	Addr1        [6]byte // receiver
	Addr2        [6]byte // transmitter
	Addr3        [6]byte // BSSID
	SeqCtrl      uint16
	Body         []byte
}

// dataFrameHeaderLen is the MPDU header size in bytes.
const dataFrameHeaderLen = 24

// FrameControlData is the frame-control value of a plain data frame
// (type=data, subtype=0, toDS set).
const FrameControlData uint16 = 0x0108

// Marshal serialises the frame and appends the CRC-32 FCS, producing a
// PSDU ready for the PHY.
func (f *DataFrame) Marshal() []byte {
	out := make([]byte, dataFrameHeaderLen, dataFrameHeaderLen+len(f.Body)+4)
	binary.LittleEndian.PutUint16(out[0:], f.FrameControl)
	binary.LittleEndian.PutUint16(out[2:], f.DurationID)
	copy(out[4:], f.Addr1[:])
	copy(out[10:], f.Addr2[:])
	copy(out[16:], f.Addr3[:])
	binary.LittleEndian.PutUint16(out[22:], f.SeqCtrl)
	out = append(out, f.Body...)
	return AppendFCS(out)
}
