package bluetooth

import "fmt"

// AdvPDU is a minimal BLE advertising-channel PDU (ADV_NONCONN_IND): a
// 2-byte header (type + payload length), the 6-byte advertiser address,
// and up to 31 bytes of advertising data. The link-layer CRC-24 is
// appended by the PHY transmitter.
type AdvPDU struct {
	AdvAddr [6]byte
	AdvData []byte
}

// pduTypeNonConn is the ADV_NONCONN_IND type code.
const pduTypeNonConn byte = 0x02

// MaxAdvData is the BLE limit on advertising data.
const MaxAdvData = 31

// Marshal serialises the PDU, ready for Transmit.
func (p *AdvPDU) Marshal() ([]byte, error) {
	if len(p.AdvData) > MaxAdvData {
		return nil, fmt.Errorf("bluetooth: advertising data %d exceeds %d bytes", len(p.AdvData), MaxAdvData)
	}
	out := make([]byte, 2, 2+6+len(p.AdvData))
	out[0] = pduTypeNonConn
	out[1] = byte(6 + len(p.AdvData))
	out = append(out, p.AdvAddr[:]...)
	return append(out, p.AdvData...), nil
}
