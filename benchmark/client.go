package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"syscall"
	"time"
)

// conn is the load client's one connection: a TCP socket in blocking
// mode, written and read with plain system calls by the single goroutine
// that owns it. http.Client is deliberately not used — its per-connection
// reader and writer goroutines add a scheduler hop in each direction — and
// neither is net.Conn, whose reads park in the runtime's network poller:
// on a two-core box either costs more than the request itself.
type conn struct {
	addr string
	c    *os.File
	br   *bufio.Reader
	body bytes.Buffer
}

// ioTimeout bounds every blocking read and write, so a wedged server
// fails the operation instead of hanging the run.
const ioTimeout = 60 * time.Second

func dial(addr string) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer nc.Close() // File returns an independent duplicate
	f, err := nc.(*net.TCPConn).File()
	if err != nil {
		return nil, err
	}
	tv := syscall.NsecToTimeval(int64(ioTimeout))
	for _, opt := range []int{syscall.SO_RCVTIMEO, syscall.SO_SNDTIMEO} {
		if err := syscall.SetsockoptTimeval(int(f.Fd()), syscall.SOL_SOCKET, opt, &tv); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &conn{addr: addr, c: f, br: bufio.NewReaderSize(f, 64<<10)}, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
	}
}

// do writes one pre-built request and reads its response. The returned
// body aliases the connection's buffer and is valid until the next call.
func (c *conn) do(wire []byte) (int, []byte, error) {
	if _, err := c.c.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// redial replaces a broken connection so one I/O error costs one failed
// operation, not the rest of the run.
func (c *conn) redial() error {
	c.close()
	n, err := dial(c.addr)
	if err != nil {
		return err
	}
	c.c, c.br = n.c, n.br
	return nil
}

// wireRequest renders a complete HTTP/1.1 request so nothing is
// formatted or allocated once the clock runs.
func wireRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if method == http.MethodPost {
		fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// digest folds an answer's identifying content — pattern keys, supports
// and TID lists, in order of appearance — into one number, so a response
// can be checked against the oracle after the run without keeping its
// body. Oracle and scanner fold through the same three methods.
type digest uint64

const digestSeed digest = 14695981039346656037

func (d digest) foldInt(v int) digest { return (d ^ digest(uint64(v)+1)) * 1099511628211 }

func (d digest) foldKey(key string) digest {
	for i := 0; i < len(key); i++ {
		d = (d ^ digest(key[i])) * 1099511628211
	}
	return d.foldInt(len(key))
}

func (d digest) foldList(tids []int) digest {
	for _, t := range tids {
		d = d.foldInt(t)
	}
	return d.foldInt(-2 - len(tids))
}

// scanAnswer extracts the epoch and the digest from a JSON response of
// /v1/contains or /v1/patterns. It is a byte scanner, not a JSON decoder:
// the load goroutine runs it between requests, and decoding a 1000-id TID
// list through encoding/json there would throttle the closed loop.
func scanAnswer(body []byte) (epoch uint64, d digest) {
	d = digestSeed
	for i := 0; i < len(body); i++ {
		if body[i] != '"' {
			continue
		}
		end := bytes.IndexByte(body[i+1:], '"')
		if end < 0 {
			break
		}
		name := body[i+1 : i+1+end]
		i += end + 2
		j := skipSpace(body, i)
		if j >= len(body) || body[j] != ':' {
			i = j - 1 // a string value, not a member name
			continue
		}
		j = skipSpace(body, j+1)
		switch string(name) {
		case "epoch":
			v, next := scanInt(body, j)
			epoch = uint64(v)
			i = next - 1
		case "support":
			v, next := scanInt(body, j)
			d = d.foldInt(v)
			i = next - 1
		case "key":
			if j < len(body) && body[j] == '"' {
				if e := bytes.IndexByte(body[j+1:], '"'); e >= 0 {
					d = d.foldKey(string(body[j+1 : j+1+e]))
					i = j + 1 + e
				}
			}
		case "tids":
			if j < len(body) && body[j] == '[' {
				n := 0
				for j++; j < len(body) && body[j] != ']'; {
					if body[j] >= '0' && body[j] <= '9' {
						var v int
						v, j = scanInt(body, j)
						d = d.foldInt(v)
						n++
					} else {
						j++
					}
				}
				d = d.foldInt(-2 - n)
				i = j
			}
		default:
			i = j - 1
		}
	}
	return epoch, d
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanInt parses the unsigned decimal at b[i:] and returns it with the
// index just past it.
func scanInt(b []byte, i int) (int, int) {
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	v, _ := strconv.Atoi(string(b[i:j])) // empty or overlong digits read as 0 and fail the digest comparison
	return v, j
}
