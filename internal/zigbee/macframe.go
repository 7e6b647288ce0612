package zigbee

import "encoding/binary"

// DataFrame is a minimal IEEE 802.15.4 data MPDU with short (16-bit)
// addressing and PAN-ID compression: frame control, sequence number,
// destination PAN, destination and source addresses, payload. The PHY FCS
// (CRC-16) is appended by the transmitter.
type DataFrame struct {
	Seq     byte
	DstPAN  uint16
	DstAddr uint16
	SrcAddr uint16
	Payload []byte
}

// frameControlData: type=data (001), PAN-ID compression, dst and src short
// addressing, 2006 frame version.
const frameControlData uint16 = 0x8841

// mhrLen is the MAC header length with short addressing.
const mhrLen = 9

// Marshal serialises the MPDU (header + payload), ready for Transmit.
func (f *DataFrame) Marshal() []byte {
	out := make([]byte, mhrLen, mhrLen+len(f.Payload))
	binary.LittleEndian.PutUint16(out[0:], frameControlData)
	out[2] = f.Seq
	binary.LittleEndian.PutUint16(out[3:], f.DstPAN)
	binary.LittleEndian.PutUint16(out[5:], f.DstAddr)
	binary.LittleEndian.PutUint16(out[7:], f.SrcAddr)
	return append(out, f.Payload...)
}
